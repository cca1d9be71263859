package experiments

import (
	"sync"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// baselineKey identifies one ground-truth run completely: the workload
// fingerprint, the cluster size, and every Env field that can change the
// simulation's outcome. Env.Workers is deliberately absent — it is proven
// result-invariant (determinism tests pin it), so runs at different
// parallelism levels share baselines. The network model is
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

func keyOf(env Env, w workloads.Workload, nodes int) baselineKey {
	return baselineKey{
		workload: w.Key,
		nodes:    nodes,
		guest:    env.Guest,
		hostP:    env.Host,
		net:      env.Net,
		maxGuest: env.MaxGuest,
		faults:   env.Faults.Key(),
	}
}

// baselineEntry holds one memoized ground-truth run. The entry-level mutex
// serializes computation per key (single-flight): when two studies ask for
// the same baseline from several pool workers, one computes and the rest wait
// for the result instead of duplicating the most expensive run in the
// whole evaluation.
type baselineEntry struct {
	mu       sync.Mutex
	computed bool
	res      *cluster.Result
	err      error
	rec      *obs.Recorder // the run's records; nil if it ran unrecorded
}

// BaselineCacheStats reports what a cache did over its lifetime.
type BaselineCacheStats struct {
	// Hits is the number of baseline requests served from memory.
	Hits int
	// Misses is the number of baselines actually simulated.
	Misses int
	// Upgrades counts re-simulations because a later caller wanted the
	// records of a run cached without them (at most one per key: the rerun is
	// recorded, and a recorded entry serves every caller).
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
	mu      sync.Mutex // guards entries and stats; taken last, never held across a run
	entries map[baselineKey]*baselineEntry
	stats   BaselineCacheStats
}

// NewBaselineCache returns an empty cache.
func NewBaselineCache() *BaselineCache {
	return &BaselineCache{entries: map[baselineKey]*baselineEntry{}}
}

// Stats snapshots the cache's counters.
func (c *BaselineCache) Stats() BaselineCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// get is how every experiment obtains its Q = 1µs baseline: the memoized
// ground-truth run for (env, w, nodes), computed on first use — or a plain
// run when there is no cache or the workload carries no fingerprint. A
// non-nil rec asks for the run's records too and receives the entry's; a run
// cached without them is re-simulated once, recorded — bit-identical, the
// engine being deterministic. The Result, and the records, may be shared with
// other callers: read-only.
func (c *BaselineCache) get(env Env, w workloads.Workload, nodes int, rec *obs.Recorder, speeds *host.Speeds) (*cluster.Result, error) {
	if c == nil || w.Key == "" {
		return runOne(env, w, nodes, GroundTruth(), rec, speeds)
	}
	key := keyOf(env, w, nodes)
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &baselineEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	upgrade := e.computed && e.err == nil && rec != nil && e.rec == nil
	c.mu.Lock()
	switch {
	case upgrade:
		c.stats.Upgrades++
	case e.computed:
		c.stats.Hits++
	default:
		c.stats.Misses++
	}
	c.mu.Unlock()
	if !e.computed || upgrade {
		if rec != nil {
			e.rec = &obs.Recorder{}
		}
		e.res, e.err = runOne(env, w, nodes, GroundTruth(), e.rec, speeds)
		e.computed = true
	}
	if rec != nil && e.err == nil {
		*rec = *e.rec
	}
	return e.res, e.err
}
