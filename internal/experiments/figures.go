package experiments

import (
	"fmt"
	"sort"
	"strings"

	"clustersim/internal/metrics"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

// AggRow is one bar of Figures 6 and 7: a configuration at a node count with
// suite-level accuracy error and speedup.
type AggRow struct {
	Config string
	Nodes  int
	// AccErr is the relative error of the harmonic-mean metric (NAS) or of
	// the wall-clock time (NAMD) versus ground truth.
	AccErr float64
	// Speedup is the whole-suite host-time ratio versus ground truth.
	Speedup float64
}

// Fig6 reproduces Figure 6: the five NAS kernels at 2, 4 and 8 nodes under
// the standard configurations; accuracy is the harmonic mean over the suite
// (the NAS aggregation rule), speedup is the suite's total host time ratio.
func Fig6(env Env, scale float64, nodeCounts []int) ([]AggRow, []Cell, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8}
	}
	cells, err := Grid(env, NASSuite(scale), nodeCounts, StandardSpecs())
	if err != nil {
		return nil, nil, err
	}
	rows := aggregateNAS(cells, nodeCounts, StandardSpecs())
	return rows, cells, nil
}

// aggregateNAS folds a suite's grid into one row per (node count, spec).
// Grid's cells are workload-major, so the bucket of a (node count, spec) pair
// is every len(nodeCounts)×len(specs)-th cell, in workload order.
func aggregateNAS(cells []Cell, nodeCounts []int, specs []Spec) []AggRow {
	stride := len(nodeCounts) * len(specs)
	rows := make([]AggRow, stride)
	for b := range rows {
		var mops, baseMops []float64
		var hostCfg, hostBase float64
		for i := b; i < len(cells); i += stride {
			c := &cells[i]
			mops = append(mops, c.Metric)
			baseMops = append(baseMops, c.BaseMetric)
			hostCfg += float64(c.HostTime)
			hostBase += c.Speedup * float64(c.HostTime)
		}
		rows[b] = AggRow{
			Config:  cells[b].Config,
			Nodes:   cells[b].Nodes,
			AccErr:  metrics.RelError(metrics.HarmonicMean(mops), metrics.HarmonicMean(baseMops)),
			Speedup: hostBase / hostCfg,
		}
	}
	return rows
}

// Fig7 reproduces Figure 7: NAMD at 2, 4 and 8 nodes under the standard
// configurations. Accuracy is the relative wall-clock deviation. Rows come,
// like Figure 6's, node count by node count in StandardSpecs order.
func Fig7(env Env, scale float64, nodeCounts []int) ([]AggRow, []Cell, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8}
	}
	cells, err := Grid(env, []workloads.Workload{NAMDWorkload(scale)}, nodeCounts, StandardSpecs())
	if err != nil {
		return nil, nil, err
	}
	var rows []AggRow
	for _, c := range cells {
		rows = append(rows, AggRow{Config: c.Config, Nodes: c.Nodes, AccErr: c.AccErr, Speedup: c.Speedup})
	}
	return rows, cells, nil
}

// Fig8 reproduces Figure 8: the 8-node NAS and NAMD configurations plotted
// in the (accuracy error, speedup) plane, with the Pareto front marked.
type Fig8Out struct {
	// Points are in order of increasing accuracy error.
	Points []metrics.Point
	Front  []metrics.Point
	// NearFront maps each adaptive point to its distance from the front
	// (the paper's claim: all adaptive configurations lie on or very near
	// it).
	NearFront map[string]float64
}

// Fig8 derives the Pareto plot from already-computed Figure 6/7 cells (so
// the expensive grid runs once); pass the nodes count the paper uses (8).
func Fig8(nasRows, namdRows []AggRow, nodes int) Fig8Out {
	var pts []metrics.Point
	add := func(prefix string, rows []AggRow) {
		for _, r := range rows {
			if r.Nodes != nodes {
				continue
			}
			pts = append(pts, metrics.Point{
				Name:    prefix + " " + r.Config,
				Err:     r.AccErr,
				Speedup: r.Speedup,
			})
		}
	}
	add("NAS", nasRows)
	add("NAMD", namdRows)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Err < pts[j].Err })
	out := Fig8Out{Points: pts, Front: metrics.ParetoFront(pts), NearFront: map[string]float64{}}
	for _, p := range pts {
		if strings.Contains(p.Name, "dyn") {
			out.NearFront[p.Name] = metrics.DistanceToFront(p, pts)
		}
	}
	return out
}

// ScaleOut is the outcome of one Figure 9 case study.
type ScaleOut struct {
	Benchmark string
	Nodes     int
	// Rows are the Section 6 table, the adaptive configuration first: Speedup
	// is "Acceleration vs. 1µs", AccErr "Accuracy Error vs. 1µs" (EP, NAMD
	// tables), ExecRatio "Simulated Exec. Ratio vs. 1µs" (IS table), and the
	// first row's Stats.MeanQ the quantum the adaptive run settled on — the
	// paper's observation that it "automatically adjusts to approximate the
	// best quantum".
	Rows []Cell
	// TrafficChart is the Figure 9 left chart (from the ground-truth run).
	TrafficChart string
	// SpeedupCharts maps config label → Figure 9 right chart.
	SpeedupCharts map[string]string
}

// Fig9Case runs one Section 6 scale-out case study: benchmark w on nodes
// nodes under the adaptive spec dyn and the fixed ones.
func Fig9Case(env Env, w workloads.Workload, nodes int, dyn Spec, fixed []Spec, chartWidth int) (*ScaleOut, error) {
	// Every run is recorded; the first point is the ground truth itself.
	specs := append([]Spec{{}, dyn}, fixed...)
	recs := make([]obs.Recorder, len(specs))
	points := make([]Point, len(specs))
	for i, spec := range specs {
		points[i] = Point{Workload: w, Nodes: nodes, Spec: spec, Rec: &recs[i]}
	}
	cells, err := Measure(env, points)
	if err != nil {
		return nil, err
	}
	out := &ScaleOut{
		Benchmark:     w.Name,
		Nodes:         nodes,
		Rows:          cells[1:],
		TrafficChart:  trace.TrafficChart(recs[0].Packets, nodes, cells[0].GuestTime, chartWidth),
		SpeedupCharts: map[string]string{},
	}
	baseRate := float64(cells[0].GuestTime) / float64(cells[0].HostTime)
	for i, c := range cells[1:] {
		series := trace.SpeedupSeries(recs[i+1].Quanta, baseRate, chartWidth, c.GuestTime)
		out.SpeedupCharts[c.Config] = trace.LogChart(series, 1, 100, 8,
			fmt.Sprintf("%s %s speedup vs 1µs over time", w.Name, c.Config))
	}
	return out, nil
}

// ScaleOutCase names one Section 6 case study: a benchmark, its adaptive
// schedule and the fixed quanta of its table.
type ScaleOutCase struct {
	Workload workloads.Workload
	Dyn      Spec
	Fixed    []Spec
}

// Fig9Cases returns the three Section 6 case studies (EP, IS, NAMD) with the
// table configurations of the paper.
func Fig9Cases(scale float64) []ScaleOutCase {
	nas := NASSuite(scale)
	fixed := []Spec{
		FixedSpec("100", 100*simtime.Microsecond),
		FixedSpec("10", 10*simtime.Microsecond),
	}
	return []ScaleOutCase{
		{nas[0], DynSpec("dyn 1:100", 1*simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.1), fixed},
		// IS uses the paper's "very conservative adaptation schedule (slow
		// acceleration and fast deceleration)".
		{nas[1], DynSpec("dyn 1:100 conservative", 1*simtime.Microsecond, 100*simtime.Microsecond, 1.02, 0.05), fixed},
		{NAMDWorkload(scale), DynSpec("dyn 2:100", 2*simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.14), fixed},
	}
}
