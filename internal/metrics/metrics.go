// Package metrics implements the paper's evaluation arithmetic: relative
// accuracy error against the ground truth, harmonic-mean aggregation of the
// NAS results, speedup ratios, and Pareto-frontier extraction for Figure 8.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// HarmonicMean returns the harmonic mean of vs (the NAS suite's aggregation
// rule for MOPS). It panics on empty input or non-positive values, which
// have no harmonic mean.
func HarmonicMean(vs []float64) float64 {
	if len(vs) == 0 {
		panic("metrics: harmonic mean of no values")
	}
	var inv float64
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("metrics: harmonic mean of non-positive value %v", v))
		}
		inv += 1 / v
	}
	return float64(len(vs)) / inv
}

// RelError returns |v-base|/base: the paper's accuracy error of a metric
// against the ground-truth run.
func RelError(v, base float64) float64 {
	if base == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(v-base) / math.Abs(base)
}

// Speedup returns baseHost/host: how many times faster a configuration
// simulated than the ground truth.
func Speedup(host, baseHost float64) float64 {
	if host == 0 {
		return math.Inf(1)
	}
	return baseHost / host
}

// Point is one configuration's position in the accuracy/speed plane of
// Figure 8.
type Point struct {
	// Name labels the configuration (e.g. "NAS Q=100µs").
	Name string
	// Err is the relative accuracy error (smaller is better).
	Err float64
	// Speedup is the simulation speedup over ground truth (larger is
	// better).
	Speedup float64
}

// Dominates reports whether p is at least as good as q on both criteria and
// strictly better on at least one — the Pareto dominance rule of the paper's
// Figure 8.
func (p Point) Dominates(q Point) bool {
	if p.Err > q.Err || p.Speedup < q.Speedup {
		return false
	}
	return p.Err < q.Err || p.Speedup > q.Speedup
}

// ParetoFront returns the subset of pts not dominated by any other point,
// sorted by increasing error. Ties (identical points) are all kept.
func ParetoFront(pts []Point) []Point {
	var front []Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Err != front[j].Err {
			return front[i].Err < front[j].Err
		}
		return front[i].Speedup > front[j].Speedup
	})
	return front
}

// OnFront reports whether p belongs to the Pareto front of pts (p must be an
// element of pts by value).
func OnFront(p Point, pts []Point) bool {
	for _, q := range pts {
		if q.Dominates(p) {
			return false
		}
	}
	return true
}

// DistanceToFront returns how far p is from the Pareto front of pts in the
// (log-speedup, error) plane — 0 for points on the front. The paper claims
// adaptive configurations lie "in or very near" the front; this quantifies
// "near".
func DistanceToFront(p Point, pts []Point) float64 {
	if OnFront(p, pts) {
		return 0
	}
	front := ParetoFront(pts)
	best := math.Inf(1)
	for _, q := range front {
		dx := q.Err - p.Err
		dy := math.Log10(q.Speedup) - math.Log10(p.Speedup)
		d := math.Hypot(dx, dy)
		if d < best {
			best = d
		}
	}
	return best
}
