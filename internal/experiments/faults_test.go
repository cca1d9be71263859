package experiments

import (
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

func TestFaultSweep(t *testing.T) {
	env := DefaultEnv()
	w := workloads.ReliablePhases(2, 150*simtime.Microsecond, 8<<10)
	specs := []Spec{
		FixedSpec("100", 100*simtime.Microsecond),
		DynSpec("dyn 1k 1.03:0.02", simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02),
	}
	rows, err := FaultSweep(env, w, 4, specs, []float64{0, 10}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for i, r := range rows {
		wantPct, wantCfg := []float64{0, 0, 10, 10}[i], specs[i%2].Label
		if r.LossPct != wantPct || r.Config != wantCfg {
			t.Fatalf("row %d is (%g%%, %q), want (%g%%, %q)", i, r.LossPct, r.Config, wantPct, wantCfg)
		}
		if r.MeanQ <= 0 || r.GuestTime <= 0 {
			t.Errorf("row %d missing run outcomes: %+v", i, r)
		}
	}
	// Lossless rows must run the nil-plan path: no drops, no duplicates.
	// (They may still retransmit — at coarse quanta, straggler delay can
	// exceed the retransmission timer without any loss.)
	for _, r := range rows[:2] {
		if r.Dropped != 0 || r.Duplicated != 0 {
			t.Errorf("lossless row reports fault counters: %+v", r)
		}
	}
	for _, r := range rows[2:] {
		if r.Dropped == 0 {
			t.Errorf("10%% loss dropped nothing: %+v", r)
		}
		if r.Retransmits == 0 {
			t.Errorf("reliable workload under loss reports no retransmits: %+v", r)
		}
	}
}

// A fault plan must key the baseline cache: the same workload under two
// different plans (or under none) may not share a ground truth.
func TestBaselineCacheKeysOnFaults(t *testing.T) {
	cache := NewBaselineCache()
	env := DefaultEnv()
	env.Baselines = cache
	w := workloads.Phases(2, 100*simtime.Microsecond, 4<<10)

	run := func(plan *faults.Plan) {
		t.Helper()
		fenv := env
		fenv.Faults = plan
		if _, err := fenv.Baselines.get(fenv, w, 2, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(nil)
	run(&faults.Plan{Seed: 1, Default: faults.Link{Dup: 0.1}})
	run(&faults.Plan{Seed: 2, Default: faults.Link{Dup: 0.1}})
	run(&faults.Plan{Seed: 1, Default: faults.Link{Dup: 0.1}}) // same fingerprint: cached

	s := cache.Stats()
	if s.Entries != 3 || s.Misses != 3 || s.Hits != 1 {
		t.Errorf("cache saw %+v, want 3 entries / 3 misses / 1 hit", s)
	}
}
