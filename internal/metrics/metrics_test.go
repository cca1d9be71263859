package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if got := HarmonicMean([]float64{4, 4, 4}); got != 4 {
		t.Errorf("HM of equal values = %v", got)
	}
	got := HarmonicMean([]float64{1, 2, 4})
	want := 3.0 / (1 + 0.5 + 0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("HM = %v, want %v", got, want)
	}
	// The harmonic mean is dominated by small values — why one bad NAS
	// kernel drags the paper's suite accuracy down.
	if HarmonicMean([]float64{0.001, 100, 100}) > 0.01 {
		t.Error("HM not dominated by the small value")
	}
}

func TestHarmonicMeanPanics(t *testing.T) {
	for _, vs := range [][]float64{nil, {}, {1, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HarmonicMean(%v) did not panic", vs)
				}
			}()
			HarmonicMean(vs)
		}()
	}
}

func TestRelError(t *testing.T) {
	if RelError(110, 100) != 0.1 {
		t.Error("RelError high")
	}
	if RelError(90, 100) != 0.1 {
		t.Error("RelError low")
	}
	if RelError(100, 100) != 0 {
		t.Error("RelError equal")
	}
	if RelError(0, 0) != 0 {
		t.Error("RelError zero/zero")
	}
	if !math.IsInf(RelError(1, 0), 1) {
		t.Error("RelError x/0 should be +Inf")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(50, 100) != 2 {
		t.Error("Speedup broken")
	}
	if !math.IsInf(Speedup(0, 100), 1) {
		t.Error("Speedup 0-host should be +Inf")
	}
}

func TestDominates(t *testing.T) {
	a := Point{Err: 0.01, Speedup: 50}
	b := Point{Err: 0.05, Speedup: 40}
	c := Point{Err: 0.005, Speedup: 60}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if a.Dominates(c) || !c.Dominates(a) {
		t.Error("c should dominate a")
	}
	if a.Dominates(a) {
		t.Error("a point must not dominate itself")
	}
	// Incomparable points.
	d := Point{Err: 0.001, Speedup: 10}
	if a.Dominates(d) || d.Dominates(a) {
		t.Error("incomparable points should not dominate each other")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Name: "A", Err: 0.01, Speedup: 10},
		{Name: "B", Err: 0.05, Speedup: 40},
		{Name: "C", Err: 0.80, Speedup: 65}, // fast but awful
		{Name: "D", Err: 0.06, Speedup: 30}, // dominated by B
		{Name: "E", Err: 0.02, Speedup: 5},  // dominated by A
	}
	front := ParetoFront(pts)
	names := map[string]bool{}
	for _, p := range front {
		names[p.Name] = true
	}
	if !names["A"] || !names["B"] || !names["C"] || names["D"] || names["E"] {
		t.Errorf("wrong front: %v", front)
	}
	// Front must be sorted by increasing error.
	for i := 1; i < len(front); i++ {
		if front[i].Err < front[i-1].Err {
			t.Error("front not sorted")
		}
	}
	if !OnFront(pts[0], pts) || OnFront(pts[3], pts) {
		t.Error("OnFront disagrees with ParetoFront")
	}
	if DistanceToFront(pts[0], pts) != 0 {
		t.Error("front point should have zero distance")
	}
	if DistanceToFront(pts[3], pts) <= 0 {
		t.Error("dominated point should have positive distance")
	}
}

// Property: no point on the front is dominated by any input point, and every
// input point is either on the front or dominated by someone.
func TestPropertyParetoSoundAndComplete(t *testing.T) {
	f := func(errs []uint8, sps []uint8) bool {
		n := len(errs)
		if len(sps) < n {
			n = len(sps)
		}
		if n == 0 {
			return true
		}
		var pts []Point
		for i := 0; i < n; i++ {
			pts = append(pts, Point{
				Err:     float64(errs[i]) / 255,
				Speedup: 1 + float64(sps[i]),
			})
		}
		front := ParetoFront(pts)
		onFront := func(p Point) bool {
			for _, q := range front {
				if q == p {
					return true
				}
			}
			return false
		}
		for _, p := range front {
			for _, q := range pts {
				if q.Dominates(p) {
					return false // unsound
				}
			}
		}
		for _, p := range pts {
			if onFront(p) {
				continue
			}
			dominated := false
			for _, q := range pts {
				if q.Dominates(p) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false // incomplete
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
