package experiments

import (
	"reflect"
	"testing"

	"clustersim/internal/obs"
)

// A shared baseline cache must change how often ground truths are computed
// — exactly once per distinct (workload, nodes, env) — and nothing else:
// every runner's output is identical with and without it.
func TestBaselineCacheSharing(t *testing.T) {
	env := DefaultEnv()
	env.Workers = 4
	ws := NASSuite(0.02)[:2] // nas.ep, nas.is
	nc := []int{2, 4}
	specs := StandardSpecs()[:2]

	plain, err := Grid(env, ws, nc, specs)
	if err != nil {
		t.Fatal(err)
	}

	env.Baselines = NewBaselineCache()
	cached, err := Grid(env, ws, nc, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Error("cells differ between cached and uncached grids")
	}
	st := env.Baselines.Stats()
	if want := len(ws) * len(nc); st.Misses != want || st.Entries != want {
		t.Errorf("first grid: want %d misses/entries, got %+v", want, st)
	}

	// A second grid over the same matrix must be all hits, no new runs.
	cached2, err := Grid(env, ws, nc, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached2) {
		t.Error("cells differ between first and second cached grid")
	}
	st2 := env.Baselines.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("second grid recomputed baselines: %+v -> %+v", st, st2)
	}
	if st2.Hits != st.Hits+len(ws)*len(nc) {
		t.Errorf("second grid: want %d more hits, got %+v -> %+v", len(ws)*len(nc), st, st2)
	}

	// A different runner on a cell the grid already measured also hits.
	abl, err := AblationIncDec(env, ws[1], 2, []float64{1.03}, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	env2 := env
	env2.Baselines = nil
	ablPlain, err := AblationIncDec(env2, ws[1], 2, []float64{1.03}, []float64{0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(abl, ablPlain) {
		t.Errorf("ablation rows differ with cache:\n%+v\n%+v", abl, ablPlain)
	}
	st3 := env.Baselines.Stats()
	if st3.Misses != st2.Misses || st3.Hits != st2.Hits+1 {
		t.Errorf("ablation base not served from cache: %+v -> %+v", st2, st3)
	}

	// A caller wanting the records of a run cached without them upgrades it
	// once; the recorded entry then serves recording and plain callers alike.
	var rec obs.Recorder
	res, err := env.Baselines.get(env, ws[1], 2, &rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	st4 := env.Baselines.Stats()
	if st4.Upgrades != 1 || st4.Misses != st3.Misses {
		t.Errorf("want exactly one trace upgrade, got %+v -> %+v", st3, st4)
	}
	if len(rec.Quanta) != res.Stats.Quanta || len(rec.Packets) != res.Stats.Deliveries || len(rec.Packets) == 0 {
		t.Errorf("upgrade handed out %d quanta and %d packets for a run of %d and %d",
			len(rec.Quanta), len(rec.Packets), res.Stats.Quanta, res.Stats.Deliveries)
	}
	var rec2 obs.Recorder
	if _, err := env.Baselines.get(env, ws[1], 2, &rec2, nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, rec2) {
		t.Error("a second recording caller received different records")
	}
	if _, err := env.Baselines.get(env, ws[1], 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	st5 := env.Baselines.Stats()
	if st5.Upgrades != 1 || st5.Hits != st4.Hits+2 {
		t.Errorf("upgraded entry should serve both callers from cache: %+v -> %+v", st4, st5)
	}

	// An entry first computed for a recording caller needs no upgrade, ever.
	env.Baselines = NewBaselineCache()
	var cold obs.Recorder
	if _, err := env.Baselines.get(env, ws[1], 2, &cold, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Baselines.get(env, ws[1], 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if st := env.Baselines.Stats(); st.Misses != 1 || st.Hits != 1 || st.Upgrades != 0 {
		t.Errorf("recorded-first entry: want 1 miss, 1 hit, no upgrade, got %+v", st)
	}
	if !reflect.DeepEqual(cold, rec) {
		t.Error("cold recorded run and upgraded run hold different records")
	}
}
