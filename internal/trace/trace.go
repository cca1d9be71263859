// Package trace renders run traces as terminal charts: the packet-traffic
// charts (nodes × time, one mark per exchanged packet) and the logarithmic
// speedup-over-time charts of the paper's Figure 9, plus a quantum-duration
// chart that visualizes the adaptive algorithm "driving over speed bumps".
package trace

import (
	"fmt"
	"math"
	"strings"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// density glyphs from sparse to dense.
var shades = []byte{' ', '.', ':', '+', '*', '#'}

// TrafficChart renders the paper's Figure 9 left-hand charts: node IDs on
// the y axis, guest time on the x axis, and a vertical stroke connecting the
// source and destination of every packet, with character density encoding
// traffic volume.
func TrafficChart(packets []obs.PacketRecord, nodes int, end simtime.Guest, width int) string {
	if width < 10 {
		width = 10
	}
	if end <= 0 {
		end = 1
	}
	rows := nodes
	grid := make([][]int, rows)
	for i := range grid {
		grid[i] = make([]int, width)
	}
	for _, p := range packets {
		x := int(int64(p.SendGuest) * int64(width) / int64(end))
		if x < 0 {
			x = 0
		}
		if x >= width {
			x = width - 1
		}
		lo, hi := p.Src, p.Dst
		if lo > hi {
			lo, hi = hi, lo
		}
		for y := lo; y <= hi && y < rows; y++ {
			grid[y][x]++
		}
	}
	// Normalize densities to glyphs.
	max := 1
	for _, row := range grid {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traffic: %d nodes × %v (each column ≈ %v)\n", nodes, end, simtime.Duration(int64(end)/int64(width)))
	for y := 0; y < rows; y++ {
		fmt.Fprintf(&b, "%3d |", y)
		for x := 0; x < width; x++ {
			v := grid[y][x]
			var g byte
			switch {
			case v == 0:
				g = shades[0]
			case max <= len(shades)-1:
				g = shades[v]
			default:
				idx := 1 + int(float64(len(shades)-2)*math.Log1p(float64(v))/math.Log1p(float64(max)))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
				g = shades[idx]
			}
			b.WriteByte(g)
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// SpeedupSeries computes the instantaneous simulation speed of a traced run
// relative to a baseline rate, binned over guest time: the data behind the
// paper's Figure 9 right-hand charts. baselineRate is guest-ns simulated per
// host-ns of the ground-truth run (its GuestTime/HostTime).
func SpeedupSeries(quanta []obs.QuantumRecord, baselineRate float64, bins int, end simtime.Guest) []float64 {
	if bins < 1 {
		bins = 1
	}
	if end <= 0 {
		end = 1
	}
	guestPer := make([]float64, bins)
	hostPer := make([]float64, bins)
	for _, q := range quanta {
		if q.Start >= end {
			continue
		}
		i := int(int64(q.Start) * int64(bins) / int64(end))
		if i >= bins {
			i = bins - 1
		}
		guestPer[i] += float64(q.Q)
		hostPer[i] += float64(q.HostEnd - q.HostStart)
	}
	out := make([]float64, bins)
	for i := range out {
		if hostPer[i] > 0 {
			out[i] = guestPer[i] / hostPer[i] / baselineRate
		}
	}
	return out
}

// LogChart renders a series as an ASCII chart with a logarithmic y axis,
// like the paper's Figure 9 speedup plots. Zero values are left blank.
func LogChart(series []float64, yMin, yMax float64, height int, label string) string {
	if height < 4 {
		height = 4
	}
	if yMin <= 0 {
		yMin = 1
	}
	if yMax <= yMin {
		yMax = yMin * 10
	}
	lmin, lmax := math.Log10(yMin), math.Log10(yMax)
	var b strings.Builder
	fmt.Fprintf(&b, "%s (log scale %.3g..%.3g)\n", label, yMin, yMax)
	for row := height - 1; row >= 0; row-- {
		lo := lmin + (lmax-lmin)*float64(row)/float64(height)
		hi := lmin + (lmax-lmin)*float64(row+1)/float64(height)
		// Y tick at the left edge.
		fmt.Fprintf(&b, "%7.1f |", math.Pow(10, lo))
		for _, v := range series {
			if v <= 0 {
				b.WriteByte(' ')
				continue
			}
			lv := math.Log10(v)
			switch {
			case lv >= lo && lv < hi:
				b.WriteByte('*')
			case lv >= hi && row == height-1:
				b.WriteByte('^') // clipped above
			case lv < lmin && row == 0:
				b.WriteByte('v') // clipped below
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("        +" + strings.Repeat("-", len(series)) + "\n")
	return b.String()
}

// QuantumSeries bins the quantum duration over guest time (mean per bin, in
// microseconds) — a direct visualization of Algorithm 1's decisions.
func QuantumSeries(quanta []obs.QuantumRecord, bins int, end simtime.Guest) []float64 {
	if bins < 1 {
		bins = 1
	}
	if end <= 0 {
		end = 1
	}
	sum := make([]float64, bins)
	n := make([]int, bins)
	for _, q := range quanta {
		if q.Start >= end {
			continue
		}
		i := int(int64(q.Start) * int64(bins) / int64(end))
		if i >= bins {
			i = bins - 1
		}
		sum[i] += q.Q.Microseconds()
		n[i]++
	}
	out := make([]float64, bins)
	for i := range out {
		if n[i] > 0 {
			out[i] = sum[i] / float64(n[i])
		}
	}
	return out
}
