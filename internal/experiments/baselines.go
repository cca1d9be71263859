package experiments

import (
	"sync"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// baselineKey identifies one ground-truth run completely: the workload
// fingerprint, the cluster size, and every Env field that can change the
// simulation's outcome. Env.Workers and Env.IntraWorkers are deliberately
// absent — both are proven result-invariant (determinism tests pin it), so
// runs at different parallelism levels share baselines. The network model is
// keyed by pointer: experiments share one *netmodel.Model per Env, and two
// distinct models are conservatively treated as different even if their
// parameters happen to match.
type baselineKey struct {
	workload string
	nodes    int
	guest    guest.Config
	hostP    host.Params
	net      *netmodel.Model
	maxGuest simtime.Guest
	// faults is the canonical fingerprint of Env.Faults (empty for nil):
	// a fault plan changes every outcome, so plans never share baselines.
	faults string
}

// baselineEntry holds one memoized ground-truth run. The entry-level mutex
// serializes computation per key (single-flight): when Grid schedules the
// same baseline from several pool workers, one computes and the rest wait
// for the result instead of duplicating the most expensive run in the
// whole evaluation.
type baselineEntry struct {
	mu       sync.Mutex
	computed bool
	res      *cluster.Result
	err      error
	traceQ   bool // res carries per-quantum records
	traceP   bool // res carries per-packet records
}

// BaselineCacheStats reports what a cache did over its lifetime.
type BaselineCacheStats struct {
	// Hits is the number of baseline requests served from memory.
	Hits int
	// Misses is the number of baselines actually simulated.
	Misses int
	// Upgrades counts re-simulations because a later caller needed traces
	// the cached run was not recorded with (the rerun keeps the union of
	// trace flags, so each key upgrades at most twice).
	Upgrades int
	// Entries is the number of distinct baselines held.
	Entries int
}

// BaselineCache memoizes ground-truth (Q = 1µs) runs across experiment
// runners. Fig 6/7/8, the ablations, the scaling curve, and the Pareto
// studies all compare against the same per-(workload, nodes, env) baseline;
// with a shared cache each is simulated exactly once per figure *set*
// instead of once per figure. Safe for concurrent use from the experiment
// worker pool.
//
// Results returned from the cache are shared: callers must treat them as
// read-only (every experiment runner already does — they only read metrics,
// stats, and traces).
type BaselineCache struct {
	mu      sync.Mutex
	entries map[baselineKey]*baselineEntry

	statMu             sync.Mutex
	hits, misses, upgs int
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache {
	return &BaselineCache{entries: map[baselineKey]*baselineEntry{}}
}

// Stats snapshots the cache's hit/miss counters.
func (c *BaselineCache) Stats() BaselineCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return BaselineCacheStats{Hits: c.hits, Misses: c.misses, Upgrades: c.upgs, Entries: n}
}

func (c *BaselineCache) count(hit, miss, upg bool) {
	c.statMu.Lock()
	if hit {
		c.hits++
	}
	if miss {
		c.misses++
	}
	if upg {
		c.upgs++
	}
	c.statMu.Unlock()
}

// get returns the memoized ground-truth run for (env, w, nodes), computing
// it on first use. traceQ/traceP declare which trace slices the caller will
// read; a cached run recorded without them is re-simulated once with the
// union of all flags seen so far (the rerun is bit-identical — the engine is
// deterministic — just with tracing on).
func (c *BaselineCache) get(env Env, w workloads.Workload, nodes int, traceQ, traceP bool, speeds *host.Speeds) (*cluster.Result, error) {
	key := baselineKey{
		workload: w.Key,
		nodes:    nodes,
		guest:    env.Guest,
		hostP:    env.Host,
		net:      env.Net,
		maxGuest: env.MaxGuest,
		faults:   env.Faults.Key(),
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &baselineEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.computed {
		if e.err != nil {
			c.count(true, false, false)
			return nil, e.err
		}
		if (e.traceQ || !traceQ) && (e.traceP || !traceP) {
			c.count(true, false, false)
			return e.res, nil
		}
		// Trace upgrade: keep the union so the entry only ever widens.
		c.count(false, false, true)
	} else {
		c.count(false, true, false)
	}
	e.traceQ = e.traceQ || traceQ
	e.traceP = e.traceP || traceP
	e.res, e.err = runOne(env, w, nodes, GroundTruth(), e.traceQ, e.traceP, speeds)
	e.computed = true
	return e.res, e.err
}

// runGroundTruth is how every experiment runner obtains its Q = 1µs
// baseline: through Env.Baselines when one is attached (and the workload
// carries a fingerprint), falling back to a direct run otherwise. The
// returned Result may be shared with other runners — treat it as read-only.
func runGroundTruth(env Env, w workloads.Workload, nodes int, traceQ, traceP bool, speeds *host.Speeds) (*cluster.Result, error) {
	if env.Baselines == nil || w.Key == "" {
		return runOne(env, w, nodes, GroundTruth(), traceQ, traceP, speeds)
	}
	return env.Baselines.get(env, w, nodes, traceQ, traceP, speeds)
}
