package experiments

import (
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// mixedPoints is a point list with everything Measure has to tell apart: two
// workloads and node counts, a recorded ground-truth point, a recorded run,
// a point whose host differs for the run and its ground truth (AblationHost),
// and one whose host differs for the run only (SamplingStudy).
func mixedPoints(env Env) ([]Point, []*obs.Recorder) {
	phases := workloads.Phases(3, 200*simtime.Microsecond, 16<<10)
	is := NASSuite(0.02)[1]
	q100 := FixedSpec("100", 100*simtime.Microsecond)
	dyn := DynSpec("dyn", simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	slowBarrier, sampled := env, env
	slowBarrier.Host.BarrierCost = 4 * simtime.Millisecond
	s := DefaultSampling()
	sampled.Host.Sampling = &s
	recs := []*obs.Recorder{{}, {}}
	return []Point{
		{Workload: phases, Nodes: 2, Spec: q100},
		{Workload: phases, Nodes: 2, Spec: Spec{Label: "truth"}, Rec: recs[0]},
		{Workload: phases, Nodes: 4, Spec: dyn, Rec: recs[1]},
		{Workload: is, Nodes: 2, Spec: dyn},
		{Workload: is, Nodes: 2, Spec: q100, Env: &slowBarrier, Truth: &slowBarrier},
		{Workload: is, Nodes: 2, Spec: q100, Env: &sampled},
		{Workload: is, Nodes: 2, Spec: q100},
	}, recs
}

func TestMeasure(t *testing.T) {
	// k points on one (workload, nodes) are one ground truth: one miss, and
	// no hit either — the sharing happens inside the call.
	env := DefaultEnv()
	env.Baselines = NewBaselineCache()
	w := workloads.Phases(3, 200*simtime.Microsecond, 16<<10)
	cells, err := Grid(env, []workloads.Workload{w}, []int{2}, StandardSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if st := env.Baselines.Stats(); len(cells) != 5 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("5 points on one ground truth: %d cells, cache %+v, want 1 miss and no hit", len(cells), st)
	}
	for _, c := range cells {
		if c.BaseHostTime != cells[0].BaseHostTime || c.BaseGuestTime <= 0 || c.Speedup != float64(c.BaseHostTime)/float64(c.HostTime) {
			t.Errorf("cell %q does not carry its ground truth: %+v", c.Config, c)
		}
	}

	// The mixed list measures the same whatever the fan-out and whether or
	// not a cache stands between Measure and the ground truths.
	run := func(workers int, cache *BaselineCache) ([]Cell, []*obs.Recorder) {
		env := DefaultEnv()
		env.Workers, env.Baselines = workers, cache
		points, recs := mixedPoints(env)
		cells, err := Measure(env, points)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cells, recs
	}
	want, wantRecs := run(1, nil)
	if c := want[1]; c.Config != "truth" || c.AccErr != 0 || c.Speedup != 1 || len(wantRecs[0].Packets) == 0 {
		t.Errorf("ground-truth point: %+v with %d packet records", c, len(wantRecs[0].Packets))
	}
	if len(wantRecs[1].Quanta) != want[2].Stats.Quanta {
		t.Errorf("recorded run holds %d quanta of %d", len(wantRecs[1].Quanta), want[2].Stats.Quanta)
	}
	if want[4].Speedup <= want[6].Speedup || want[4].BaseHostTime <= want[6].BaseHostTime {
		t.Errorf("a 4ms barrier on run and ground truth should raise both: %+v vs %+v", want[4], want[6])
	}
	if want[5].BaseHostTime != want[6].BaseHostTime || want[5].HostTime >= want[6].HostTime {
		t.Errorf("sampling the run alone should keep the ground truth and cut the host time: %+v vs %+v", want[5], want[6])
	}
	for _, workers := range []int{1, 4} {
		for _, cache := range []*BaselineCache{nil, NewBaselineCache()} {
			got, recs := run(workers, cache)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(recs, wantRecs) {
				t.Errorf("workers=%d cache=%v: cells or records differ from the sequential uncached run", workers, cache != nil)
			}
			if cache != nil {
				// phases×2, phases×4, is×2, is×2 under the slow barrier.
				if st := cache.Stats(); st.Misses != 4 || st.Hits != 0 {
					t.Errorf("workers=%d: cache %+v, want 4 misses and no hit", workers, st)
				}
			}
		}
	}

	// A workload that never reports its metric has no accuracy to speak of:
	// every study says so instead of comparing zero with zero.
	mute := workloads.Phases(2, 100*simtime.Microsecond, 4<<10)
	mute.Metric, mute.Key = "absent", mute.Key+"|absent"
	env = DefaultEnv()
	dyn := DynSpec("dyn", simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.1)
	studies := map[string]func() error{
		"Grid": func() error {
			_, err := Grid(env, []workloads.Workload{mute}, []int{2}, StandardSpecs()[:1])
			return err
		},
		"AblationIncDec": func() error { _, err := AblationIncDec(env, mute, 2, []float64{1.03}, []float64{0.02}); return err },
		"AblationOracle": func() error {
			_, err := AblationOracle(env, mute, 2, simtime.Microsecond, simtime.Millisecond)
			return err
		},
		"AblationHost": func() error {
			_, err := AblationHost(env, mute, 2, []simtime.Duration{simtime.Millisecond}, []float64{0})
			return err
		},
		"SamplingStudy": func() error { _, err := SamplingStudy(env, mute, 2, DefaultSampling()); return err },
		"Fig9Case":      func() error { _, err := Fig9Case(env, mute, 2, dyn, nil, 40); return err },
	}
	for name, study := range studies {
		if err := study(); err == nil || !strings.Contains(err.Error(), `did not report "absent"`) {
			t.Errorf("%s on a workload without its metric: %v", name, err)
		}
	}
}

// TestPaperShapes holds the ✓ lines of EXPERIMENTS.md (Figures 6 and 7,
// studies A1, A4, A7 and A8) as assertions, at the scale the document makes them:
// the orderings and crossovers the paper argues from, not the values.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figures are slow")
	}
	env := DefaultEnv()
	env.Baselines = NewBaselineCache()
	nodeCounts := []int{2, 4, 8}

	nas, _, err := Fig6(env, 1.0, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	namd, _, err := Fig7(env, 1.0, nodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]AggRow{"Figure 6": nas, "Figure 7": namd} {
		at := func(nodes int, config string) AggRow {
			for _, r := range rows {
				if r.Nodes == nodes && r.Config == config {
					return r
				}
			}
			t.Fatalf("%s: no row %d/%q", name, nodes, config)
			return AggRow{}
		}
		for ni, n := range nodeCounts {
			q10, q100, q1k := at(n, "10"), at(n, "100"), at(n, "1k")
			if !(q10.AccErr < q100.AccErr && q100.AccErr < q1k.AccErr) {
				t.Errorf("%s, %d nodes: error not monotone in Q: %v %v %v", name, n, q10.AccErr, q100.AccErr, q1k.AccErr)
			}
			slow, fast := at(n, "dyn 1k 1.03:0.02"), at(n, "dyn 1k 1.05:0.02")
			if !(fast.Speedup > slow.Speedup && fast.AccErr > slow.AccErr) {
				t.Errorf("%s, %d nodes: the 1.05 schedule should be the faster and less accurate: %+v vs %+v", name, n, fast, slow)
			}
			for _, dyn := range []AggRow{slow, fast} {
				if !(dyn.Speedup > q10.Speedup && dyn.Speedup < q1k.Speedup) {
					t.Errorf("%s, %d nodes: %q speedup %.1fx not between Q=10µs (%.1fx) and Q=1000µs (%.1fx)",
						name, n, dyn.Config, dyn.Speedup, q10.Speedup, q1k.Speedup)
				}
				if dyn.AccErr > 0.005 {
					t.Errorf("%s, %d nodes: %q error %.2f%% is not at ground-truth level", name, n, dyn.Config, dyn.AccErr*100)
				}
			}
			if ni > 0 {
				for _, q := range []string{"10", "100", "1k"} {
					if prev, cur := at(nodeCounts[ni-1], q), at(n, q); cur.AccErr <= prev.AccErr {
						t.Errorf("%s, Q=%s: error %v at %d nodes not above %v at %d", name, q, cur.AccErr, n, prev.AccErr, nodeCounts[ni-1])
					}
				}
				if prev, cur := at(nodeCounts[ni-1], "dyn 1k 1.03:0.02"), at(n, "dyn 1k 1.03:0.02"); cur.Speedup >= prev.Speedup {
					t.Errorf("%s: adaptive speedup should fall as traffic densifies: %.1fx at %d nodes, %.1fx at %d",
						name, prev.Speedup, nodeCounts[ni-1], cur.Speedup, n)
				}
			}
		}
	}

	// A1: deceleration, not acceleration, is the accuracy-critical knob.
	incs, decs := []float64{1.01, 1.03, 1.05, 1.10, 1.20}, []float64{0.02, 0.1, 0.9}
	incdec, err := AblationIncDec(env, NASSuite(1.0)[1], 8, incs, decs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range incs {
		dec02, dec1, dec9 := incdec[3*i], incdec[3*i+1], incdec[3*i+2]
		for _, c := range []Cell{dec02, dec1} {
			if c.AccErr > 0.006 {
				t.Errorf("A1 %s: error %.2f%% above 0.6%% with fast deceleration", c.Config, c.AccErr*100)
			}
		}
		if dec9.AccErr <= dec02.AccErr {
			t.Errorf("A1: dec 0.9 (%s, %.2f%%) should be less accurate than dec 0.02 (%s, %.2f%%)",
				dec9.Config, dec9.AccErr*100, dec02.Config, dec02.AccErr*100)
		}
	}

	// A4: the oracle bounds the blind schedules from above, at no error.
	oracle, err := AblationOracle(env, NAMDWorkload(1.0), 8, 1*simtime.Microsecond, 1000*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range oracle[:2] {
		if o := oracle[2]; o.Config != "oracle" || o.Speedup < c.Speedup || o.AccErr > c.AccErr || o.Stats.MeanQ < c.Stats.MeanQ {
			t.Errorf("A4: oracle %+v does not bound %q %+v", o, c.Config, c)
		}
	}

	// A7: sampling is useless at Q = 1µs and multiplies under the adaptive
	// quantum, most on the compute-bound workload.
	gain := map[string]float64{}
	for _, w := range []workloads.Workload{NASSuite(1.0)[0], NAMDWorkload(1.0)} {
		c, err := SamplingStudy(env, w, 8, DefaultSampling())
		if err != nil {
			t.Fatal(err)
		}
		if c[0].Speedup != 1 || c[1].Speedup < 1 || c[1].Speedup > 1.05 {
			t.Errorf("A7 %s: sampling alone should change nothing: %.3fx -> %.3fx", w.Name, c[0].Speedup, c[1].Speedup)
		}
		gain[w.Name] = c[3].Speedup / c[2].Speedup
		if gain[w.Name] <= 1 {
			t.Errorf("A7 %s: sampling under the adaptive quantum should multiply: %.1fx -> %.1fx", w.Name, c[2].Speedup, c[3].Speedup)
		}
	}
	if gain["nas.ep"] <= gain["namd"] {
		t.Errorf("A7: sampling should help compute-bound EP (%.2fx) more than traffic-bound NAMD (%.2fx)", gain["nas.ep"], gain["namd"])
	}

	// A8: traffic density rises with scale, the quantum and the speedup fall.
	curve, err := Grid(env, []workloads.Workload{NAMDWorkload(1.0)}, []int{2, 4, 8, 16, 32, 64}, StandardSpecs()[3:4])
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		prev, cur := curve[i-1], curve[i]
		if cur.Speedup >= prev.Speedup || cur.Stats.MeanQ >= prev.Stats.MeanQ || cur.PacketsPerGuestMS() <= prev.PacketsPerGuestMS() {
			t.Errorf("A8: %d -> %d nodes: speedup %.1fx -> %.1fx, mean Q %v -> %v, packets/guest-ms %.0f -> %.0f",
				prev.Nodes, cur.Nodes, prev.Speedup, cur.Speedup, prev.Stats.MeanQ, cur.Stats.MeanQ,
				prev.PacketsPerGuestMS(), cur.PacketsPerGuestMS())
		}
	}
	if last := curve[len(curve)-1]; last.Speedup <= 1 || last.AccErr > 0.001 {
		t.Errorf("A8: at 64 nodes the pinned quantum should still be ahead of, and as accurate as, the ground truth: %+v", last)
	}
}
