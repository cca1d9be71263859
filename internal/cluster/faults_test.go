package cluster

import (
	"reflect"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// A nil plan and an empty (fault-free) plan must produce identical results:
// the fault branches are pure pass-throughs when nothing is configured.
func TestNilAndEmptyPlanIdentical(t *testing.T) {
	cfg := testConfig(3, workloads.PingPong(20, 1000), fixed(100*simtime.Microsecond))
	base, baseRec := runRecorded(t, cfg)
	cfg.Faults = &faults.Plan{Seed: 99}
	withEmpty, emptyRec := runRecorded(t, cfg)
	if !reflect.DeepEqual(base, withEmpty) || !reflect.DeepEqual(baseRec, emptyRec) {
		t.Errorf("empty plan changed the result:\n%+v\n%+v", base.Stats, withEmpty.Stats)
	}
}

// Straggler snap-to-boundary semantics under duplication: with Dup == 1 and
// no jitter, every frame is delivered twice at identical ideal arrival
// times, so each copy must be classified identically — Deliveries,
// Stragglers, QuantumSnaps, and StragglerDelay all exactly double while
// Packets (frames routed) stays put.
func TestSnapSemanticsUnderDuplication(t *testing.T) {
	cfg := testConfig(2, workloads.PingPong(30, 1000), fixed(200*simtime.Microsecond))
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Stragglers == 0 || base.Stats.QuantumSnaps == 0 {
		t.Fatalf("premise: PingPong at Q=200µs should produce snapped stragglers, got %+v", base.Stats)
	}

	cfg.Faults = &faults.Plan{Seed: 1, Default: faults.Link{Dup: 1}}
	dup, dupRec := runRecorded(t, cfg)
	s, b := dup.Stats, base.Stats
	if s.Packets != b.Packets {
		t.Errorf("Packets changed under duplication: %d vs %d", s.Packets, b.Packets)
	}
	if s.Duplicated != b.Packets {
		t.Errorf("Duplicated = %d, want one per routed frame (%d)", s.Duplicated, b.Packets)
	}
	if s.Deliveries != 2*b.Deliveries {
		t.Errorf("Deliveries = %d, want double %d", s.Deliveries, b.Deliveries)
	}
	if s.Stragglers != 2*b.Stragglers {
		t.Errorf("Stragglers = %d, want double %d: each duplicate copy must count", s.Stragglers, b.Stragglers)
	}
	if s.QuantumSnaps != 2*b.QuantumSnaps {
		t.Errorf("QuantumSnaps = %d, want double %d", s.QuantumSnaps, b.QuantumSnaps)
	}
	if s.StragglerDelay != 2*b.StragglerDelay {
		t.Errorf("StragglerDelay = %v, want double %v", s.StragglerDelay, b.StragglerDelay)
	}

	// The packet trace must corroborate the aggregates copy by copy.
	stragglers, dups, delay := 0, 0, simtime.Duration(0)
	for _, p := range dupRec.Packets {
		if p.Duplicate {
			dups++
		}
		if p.Straggler {
			stragglers++
			delay += p.Arrival.Sub(p.Ideal)
		}
	}
	if stragglers != s.Stragglers || delay != s.StragglerDelay {
		t.Errorf("trace says %d stragglers / %v delay, stats say %d / %v",
			stragglers, delay, s.Stragglers, s.StragglerDelay)
	}
	if dups != s.Duplicated {
		t.Errorf("trace says %d duplicate copies, stats say %d", dups, s.Duplicated)
	}
}

// Dropped frames must not count as stragglers or deliveries — but they must
// still count toward the quantum's packet count so Algorithm 1's np==0 test
// sees the (lost) traffic.
func TestDropsDontCountAsStragglers(t *testing.T) {
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(100*simtime.Microsecond))
	cfg.Faults = &faults.Plan{Default: faults.Link{
		Down: []faults.Window{{Start: 0, End: simtime.GuestInfinity}},
	}}
	res, rec := runRecorded(t, cfg)
	s := res.Stats
	if s.Packets == 0 {
		t.Fatal("premise: the workload should have routed frames")
	}
	if s.Dropped != s.Packets {
		t.Errorf("Dropped = %d, want every routed frame (%d)", s.Dropped, s.Packets)
	}
	if s.Deliveries != 0 || s.Stragglers != 0 || s.QuantumSnaps != 0 || s.StragglerDelay != 0 || s.Exact != 0 {
		t.Errorf("dropped frames leaked into delivery stats: %+v", s)
	}
	// Quanta that carried only dropped frames still report their traffic.
	sawDroppedTraffic := false
	for _, q := range rec.Quanta {
		if q.Packets > 0 {
			sawDroppedTraffic = true
		}
	}
	if !sawDroppedTraffic {
		t.Error("no quantum reported the dropped frames in Packets: Algorithm 1 would see np==0")
	}
}

// Identical configs with identical fault seeds replay bit-identically;
// changing only the seed redraws the outcomes.
func TestFaultSeedReplay(t *testing.T) {
	mk := func(seed uint64) (*Result, *obs.Recorder) {
		cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(100*simtime.Microsecond))
		cfg.Faults = &faults.Plan{Seed: seed, Default: faults.Link{Loss: 0.3, Dup: 0.1, Jitter: 2 * simtime.Microsecond}}
		return runRecorded(t, cfg)
	}
	a, aRec := mk(5)
	b, bRec := mk(5)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(aRec.Packets, bRec.Packets) {
		t.Error("same seed did not replay bit-identically")
	}
	c, _ := mk(6)
	if a.Stats.Dropped == c.Stats.Dropped && a.Stats.Duplicated == c.Stats.Duplicated {
		t.Errorf("different seeds produced identical fault counts: %+v vs %+v", a.Stats, c.Stats)
	}
}

// Per-node slowdown at ground truth (Q <= T: no stragglers, so guest
// behaviour is unchanged) scales host costs exactly: factor 2 on every node
// doubles HostBusy and HostIdle.
func TestSlowdownScalesHostCosts(t *testing.T) {
	cfg := testConfig(2, workloads.PingPong(20, 1000), fixed(simtime.Microsecond))
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{NodeSlowdown: map[int]float64{0: 2, 1: 2}}
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.GuestTime != base.GuestTime {
		t.Errorf("slowdown changed guest time: %v vs %v", slow.GuestTime, base.GuestTime)
	}
	if slow.Stats.HostBusy != 2*base.Stats.HostBusy {
		t.Errorf("HostBusy = %v, want double %v", slow.Stats.HostBusy, base.Stats.HostBusy)
	}
	if slow.Stats.HostIdle != 2*base.Stats.HostIdle {
		t.Errorf("HostIdle = %v, want double %v", slow.Stats.HostIdle, base.Stats.HostIdle)
	}
}

// The full-engagement bound must be exactly the smallest off-diagonal entry
// of the lookahead matrix — the paper's T — probed with the cheapest possible
// frame.
func TestLookaheadBoundMatchesMinLatency(t *testing.T) {
	models := map[string]*netmodel.Model{
		"paper": netmodel.Paper(),
		"serialization": {
			NIC:    &netmodel.SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 1e9},
			Switch: &netmodel.StoreAndForwardSwitch{BytesPerSecond: 1e9},
		},
	}
	for name, m := range models {
		c := newController(4, m, nil, nil)
		want := minLinkLat(m, 4)
		if c.la.min != want || want != m.FrameLatency(netmodel.MinProbe(), 0, 1) {
			t.Errorf("%s: lookahead bound %v != matrix minimum %v", name, c.la.min, want)
		}
		if p := c.la.partitionFor(want); p.FastNodes != 4 {
			t.Errorf("%s: Q = T leaves %d of 4 nodes loose", name, p.FastNodes)
		}
		if p := c.la.partitionFor(want + 1); p.FastNodes != 0 {
			t.Errorf("%s: Q above T leaves %d nodes loose on a uniform fabric", name, p.FastNodes)
		}
	}
}

func TestLossValidation(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	cfg := testConfig(2, w, fixed(simtime.Microsecond))
	cfg.Faults = &faults.Plan{Default: faults.Link{Loss: 1.0}}
	if _, err := Run(cfg); err == nil {
		t.Error("Loss=1 accepted")
	}
	cfg.Faults = &faults.Plan{Default: faults.Link{Loss: -0.1}}
	if _, err := Run(cfg); err == nil {
		t.Error("negative Loss accepted")
	}
}

// Zero-cost-when-disabled benchmark pair: the nil-plan run is the baseline
// every PR must hold; the active-plan run prices the fault machinery.
func benchFaultRun(b *testing.B, plan *faults.Plan) {
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), fixed(100*simtime.Microsecond))
	cfg.Faults = plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultsNilPlan(b *testing.B) { benchFaultRun(b, nil) }

func BenchmarkFaultsActivePlan(b *testing.B) {
	// Duplication and jitter, not loss: the Phases workload's collectives
	// block forever on a dropped frame (lossy runs need the reliable
	// transport), and drop-free plans still price every Decide branch.
	benchFaultRun(b, &faults.Plan{Seed: 7, Default: faults.Link{Dup: 0.02, Jitter: simtime.Microsecond}})
}
