package cluster

import (
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// The arena engine's headline allocation guarantee (DESIGN.md §12): after
// warm-up, advancing a quantum costs zero heap allocations in the event-queue
// walk and in the quiet pass, and the barrier routing loop's only per-quantum
// allocations are the unavoidable per-message guest buffers. One run's setup
// (nodes, arenas, queues) does allocate, so the steady-state rate is isolated
// by differencing two runs that are identical except for their length: setup
// cancels and the remainder is pure per-quantum cost. The race detector's
// runtime allocates on its own account and moves that difference, so under
// -race the pins check only that the path under test engaged.

// summaryObs keeps the RunSummary, where the engine reports its path mix.
type summaryObs struct {
	obs.Base
	sum obs.RunSummary
}

func (o *summaryObs) RunEnd(s obs.RunSummary) { o.sum = s }

// allocsForRun measures the average allocations of one full Run of cfg and
// returns it with the run's summary: its quantum count and how much of it the
// quiet pass fast-forwarded (DESIGN.md §7.1). Quiet quanta never reach the
// walks or the router, so a gate on those divides by the stepped remainder.
func allocsForRun(t *testing.T, cfg Config) (float64, obs.RunSummary) {
	t.Helper()
	o := &summaryObs{}
	cfg.Observer = o
	run := func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, run), o.sum
}

// steadyStatePerStepped differences a short and a long run of the same
// shape and returns the allocations per additional stepped quantum, with the
// long run's summary.
func steadyStatePerStepped(t *testing.T, label string, short, long Config) (float64, obs.RunSummary) {
	t.Helper()
	aShort, sShort := allocsForRun(t, short)
	aLong, sLong := allocsForRun(t, long)
	stepped := (sLong.Quanta - sLong.QuietQuanta) - (sShort.Quanta - sShort.QuietQuanta)
	if stepped < 20 {
		t.Fatalf("%s: long run steps only %d more quanta than the short one (%d/%d vs %d/%d quanta quiet)",
			label, stepped, sLong.QuietQuanta, sLong.Quanta, sShort.QuietQuanta, sShort.Quanta)
	}
	per := (aLong - aShort) / float64(stepped)
	t.Logf("%s: short %v allocs / %d quanta (%d quiet), long %v allocs / %d quanta (%d quiet), steady state %.4f allocs/stepped quantum",
		label, aShort, sShort.Quanta, sShort.QuietQuanta, aLong, sLong.Quanta, sLong.QuietQuanta, per)
	return per, sLong
}

// TestClassicWalkZeroAllocsPerQuantum pins the event-queue walk of a tight
// partition — dispatch, stepNode, idleTo, endIdle, schedule, sendFrame,
// routeFlight, deliver — at zero steady-state allocations: the runs differ only in phase count, so the
// difference is extra compute/alltoall cycles, and only their stepped
// (traffic-carrying or op-completing) quanta count — the silent compute
// stretches in between are fast-forwarded and never reach the walk.
func TestClassicWalkZeroAllocsPerQuantum(t *testing.T) {
	// The reference hook keeps every stepped quantum on one event queue over
	// the whole cluster whatever the quantum size.
	mk := func(phases int) Config {
		cfg := testConfig(4, workloads.Phases(phases, 150*simtime.Microsecond, 32<<10), fixed(simtime.Microsecond))
		cfg.onPartition = func(*partitioning) bool { return true }
		return cfg
	}
	if per, _ := steadyStatePerStepped(t, "event-queue walk", mk(2), mk(8)); !raceEnabled && per >= 0.5 {
		t.Errorf("event-queue walk steady state allocates %.4f allocs/stepped quantum (want < 0.5: only per-message guest buffers)", per)
	}
}

// TestQuietQuantumZeroAllocs pins the quiet pass at zero allocations per
// quantum: a 10x longer silent run must allocate as much as a short one, with
// nearly all of the extra quanta fast-forwarded — one per pass (an Adaptive
// policy that holds Q at 1µs) and ten per pass (the Fixed policy's stretches,
// DESIGN.md §7.1), with a do-nothing observer to publish them to and without.
func TestQuietQuantumZeroAllocs(t *testing.T) {
	policies := []struct {
		name    string
		pol     func() quantum.Policy
		stretch int // quanta per pass that most of the run must execute in
	}{
		{"k=1", adaptive(simtime.Microsecond, simtime.Millisecond, 1+1e-9, 0.02), 1},
		{"k=10", fixed(simtime.Microsecond), 10},
	}
	for _, p := range policies {
		for _, observed := range []bool{true, false} {
			// measure returns the run's allocations, its quanta, and those of
			// them the quiet pass executed p.stretch at a time.
			measure := func(d simtime.Duration) (allocs float64, quanta, inStretch int) {
				cfg := testConfig(4, workloads.Silent(d), p.pol)
				if observed {
					cfg.Observer = obs.Base{}
				}
				cfg.onStretch = func(k int) {
					if k == p.stretch {
						inStretch += k
					}
				}
				allocs = testing.AllocsPerRun(5, func() {
					inStretch = 0
					res, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					quanta = res.Stats.Quanta
				})
				return
			}
			aShort, qShort, sShort := measure(1 * simtime.Millisecond)
			aLong, qLong, sLong := measure(10 * simtime.Millisecond)
			t.Logf("%s observed=%v: short %v allocs / %d quanta (%d in stretches of %d), long %v allocs / %d quanta (%d)",
				p.name, observed, aShort, qShort, sShort, p.stretch, aLong, qLong, sLong)
			extra := qLong - qShort
			if quiet := sLong - sShort; quiet*100 < 95*extra {
				t.Errorf("%s observed=%v: only %d of the %d extra quanta were quiet in stretches of %d", p.name, observed, quiet, extra, p.stretch)
			}
			// An allocation in the pass costs at least 1 per stretch; set-up
			// jitter (a GC cycle landing in one run) moves the totals by a few
			// allocations per run.
			if per := (aLong - aShort) / float64(extra); !raceEnabled && per >= 0.01 {
				t.Errorf("%s observed=%v: quiet quanta allocate %.4f allocs/quantum (want 0)", p.name, observed, per)
			}
		}
	}
}

// TestSparseQuantumZeroAllocs pins the per-node skip at zero allocations per
// quantum on all-loose and mixed partitionings: sixteen ranks run back-to-back computes of
// pairwise different lengths, so nearly every stepped quantum has one active
// node among fifteen skipped ones, and a 10x longer run must allocate as much
// as a short one.
func TestSparseQuantumZeroAllocs(t *testing.T) {
	const nodes = 16
	mk := func(ops int, net *netmodel.Model, q simtime.Duration) Config {
		w := workloads.Workload{Name: "test.sparse-chain", New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				for i := 0; i < ops; i++ {
					p.Compute(simtime.Duration(7300+1100*rank) * simtime.Nanosecond)
				}
				return nil
			}
		}}
		cfg := testConfig(nodes, w, fixed(q))
		if net != nil {
			cfg.Net = net
		}
		return cfg
	}
	paths := []struct {
		name string
		net  *netmodel.Model
		q    simtime.Duration
	}{
		{"full", nil, simtime.Microsecond},
		{"graded", mixedWANNetAt(nodes, 2*simtime.Microsecond), 2 * simtime.Microsecond},
	}
	for _, p := range paths {
		per, sum := steadyStatePerStepped(t, p.name, mk(20, p.net, p.q), mk(200, p.net, p.q))
		if !raceEnabled && per >= 0.01 {
			t.Errorf("%s: sparse quanta allocate %.4f allocs/stepped quantum (want 0)", p.name, per)
		}
		stepped := sum.Quanta - sum.QuietQuanta
		if skipped := sum.QuietNodeQuanta - nodes*sum.QuietQuanta; skipped*100 < 80*nodes*stepped {
			t.Errorf("%s: only %d of %d stepped node-quanta were skipped: the gate is not on the sparse path",
				p.name, skipped, nodes*stepped)
		}
	}
}

// TestBatchedRouterAllocsPerQuantum pins the barrier routing loop:
// per-quantum allocations must come only from the per-message guest buffers
// (payload copy plus block-amortized frame/message carves), never from the
// engine's routing structures. The workloads differ only in phase count, so
// the per-quantum difference is the cost of extra communicating quanta.
func TestBatchedRouterAllocsPerQuantum(t *testing.T) {
	// Q=1µs is below the Paper model's minimum latency: every node is loose
	// in every quantum and every frame routes at the barrier.
	const q = 1 * simtime.Microsecond
	mk := func(phases int) Config {
		return testConfig(4, workloads.Phases(phases, 150*simtime.Microsecond, 32<<10), fixed(q))
	}
	perQuantum, _ := steadyStatePerStepped(t, "batched router", mk(2), mk(8))
	// Six extra alltoall phases are 72 extra 8KB messages; each costs one
	// payload buffer plus 3/64ths of a block carve. Everything else — the
	// flight slab, the deferred-flight lanes, the event arena — must
	// be reused, so the steady state stays far below one alloc per stepped
	// quantum (the compute stretches are quiet and never reach the router).
	if !raceEnabled && perQuantum >= 0.5 {
		t.Errorf("batched router steady state allocates %.4f allocs/stepped quantum (want < 0.5: only per-message guest buffers)", perQuantum)
	}
}
