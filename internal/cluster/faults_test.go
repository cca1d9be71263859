package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// A nil plan and an empty (fault-free) plan must produce identical results:
// the fault branches are pure pass-throughs when nothing is configured.
func TestNilAndEmptyPlanIdentical(t *testing.T) {
	base, empty := named("pingpong-100us-3"), named("pingpong-100us-3/empty-plan")
	if !reflect.DeepEqual(base.complete(t), empty.got.res) || !reflect.DeepEqual(base.got.rec, empty.got.rec) {
		t.Errorf("empty plan changed the result:\n%+v\n%+v", base.got.res.Stats, empty.got.res.Stats)
	}
}

// Straggler snap-to-boundary semantics under duplication: with Dup == 1 and
// no jitter, every frame is delivered twice at identical ideal arrival
// times, so each copy must be classified identically — Deliveries,
// Stragglers, QuantumSnaps, and StragglerDelay all exactly double while
// Packets (frames routed) stays put. The contracts tie the records to them.
func TestSnapSemanticsUnderDuplication(t *testing.T) {
	b, d := named("pingpong-200us-2").complete(t).Stats, named("pingpong-200us-2/dup")
	s := d.complete(t).Stats
	report(t, d.contracts)
	if b.Stragglers == 0 || b.QuantumSnaps == 0 {
		t.Fatalf("premise: PingPong at Q=200µs should produce snapped stragglers, got %+v", b)
	}
	if s.Packets != b.Packets || s.Duplicated != b.Packets || s.Deliveries != 2*b.Deliveries || s.Stragglers != 2*b.Stragglers ||
		s.QuantumSnaps != 2*b.QuantumSnaps || s.StragglerDelay != 2*b.StragglerDelay {
		t.Errorf("Dup = 1: %+v; want one duplicate per routed frame and the deliveries, stragglers, snaps and delay of %+v doubled", s, b)
	}
}

// Dropped frames must not count as stragglers or deliveries — but they must
// still count toward the quantum's packet count so Algorithm 1's np==0 test
// sees the (lost) traffic.
func TestDropsDontCountAsStragglers(t *testing.T) {
	d := named("uniform-100us-4/link-down")
	s := d.complete(t).Stats
	if s.Packets == 0 || s.Dropped != s.Packets {
		t.Errorf("Dropped = %d, want every routed frame (%d > 0)", s.Dropped, s.Packets)
	}
	if s.Deliveries != 0 || s.Stragglers != 0 || s.QuantumSnaps != 0 || s.StragglerDelay != 0 || s.Exact != 0 {
		t.Errorf("dropped frames leaked into delivery stats: %+v", s)
	}
	if !slices.ContainsFunc(d.got.rec.Quanta, func(q obs.QuantumRecord) bool { return q.Packets > 0 }) {
		t.Error("no quantum reported the dropped frames in Packets: Algorithm 1 would see np==0")
	}
}

// Identical configs with identical fault seeds replay bit-identically;
// changing only the seed redraws the outcomes.
func TestFaultSeedReplay(t *testing.T) {
	a, b, c := named("uniform-100us-4/seed=5"), named("uniform-100us-4/seed=5/replay"), named("uniform-100us-4/seed=6")
	if !reflect.DeepEqual(a.complete(t), b.got.res) || !reflect.DeepEqual(a.got.rec.Packets, b.got.rec.Packets) {
		t.Error("same seed did not replay bit-identically")
	}
	if as, cs := a.got.res.Stats, c.complete(t).Stats; as.Dropped == cs.Dropped && as.Duplicated == cs.Duplicated {
		t.Errorf("different seeds produced identical fault counts: %+v vs %+v", as, cs)
	}
}

// Per-node slowdown at ground truth (Q <= T: no stragglers, so guest
// behaviour is unchanged) scales host costs exactly: factor 2 on every node
// doubles HostBusy and HostIdle.
func TestSlowdownScalesHostCosts(t *testing.T) {
	base, slow := named("pingpong-2").complete(t), named("pingpong-2/slow-2x").complete(t)
	if slow.GuestTime != base.GuestTime || slow.Stats.HostBusy != 2*base.Stats.HostBusy || slow.Stats.HostIdle != 2*base.Stats.HostIdle {
		t.Errorf("slowdown 2x: guest %v, busy %v, idle %v; want %v, %v doubled, %v doubled",
			slow.GuestTime, slow.Stats.HostBusy, slow.Stats.HostIdle, base.GuestTime, base.Stats.HostBusy, base.Stats.HostIdle)
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
		la, want := newController(4, m, nil, nil).la, minLinkLat(m, 4)
		if la.min != want || want != m.FrameLatency(netmodel.MinProbe(), 0, 1) || la.partitionFor(want).Loose != 4 || la.partitionFor(want+1).Loose != 0 {
			t.Errorf("%s: lookahead bound %v, matrix minimum %v; %d loose nodes at Q = T (want 4), %d above it (want 0 on a uniform fabric)",
				name, la.min, want, la.partitionFor(want).Loose, la.partitionFor(want+1).Loose)
		}
	}
}

func TestLossValidation(t *testing.T) {
	for _, name := range []string{"loss of one", "negative loss"} {
		if _, err := invalidRun(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// Zero-cost-when-disabled benchmark pair: the nil-plan run is the baseline
// every PR must hold; the active-plan run prices the fault machinery.
func benchFaultRun(b *testing.B, plan *faults.Plan) {
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), fixed(100*simtime.Microsecond))
	cfg.Faults = plan
	benchQuanta(b, Run, func() Config { return cfg })
}

func BenchmarkFaultsNilPlan(b *testing.B) { benchFaultRun(b, nil) }

func BenchmarkFaultsActivePlan(b *testing.B) {
	// Duplication and jitter, not loss: the Phases workload's collectives
	// block forever on a dropped frame (lossy runs need the reliable
	// transport), and drop-free plans still price every Decide branch.
	benchFaultRun(b, &faults.Plan{Seed: 7, Default: faults.Link{Dup: 0.02, Jitter: simtime.Microsecond}})
}

// frameWalks are the engine's two ways to route a frame: at Q = 1 µs every
// node is loose and frames route at the barrier; at Q = 100 µs, above every
// link of the Paper model, the whole cluster is one tight partition and
// frames route from the event queue. Both apply the controller's one fan-out
// rule; TestParallelBroadcastAndStray holds RunParallel to it.
var frameWalks = []struct {
	name string
	q    simtime.Duration
}{
	{"barrier", simtime.Microsecond},
	{"event-queue", 100 * simtime.Microsecond},
}

// rawProgram runs f on rank 0 and, on every other rank, other.
func rawProgram(name string, f, other func(p *guest.Proc) error) workloads.Workload {
	return workloads.Workload{Name: name, New: func(rank, _ int) guest.Program {
		if rank == 0 {
			return f
		}
		return other
	}}
}

func idle(*guest.Proc) error { return nil }

// broadcastOnce: rank 0 broadcasts one frame that every other rank receives.
func broadcastOnce() workloads.Workload {
	return rawProgram("bcast", func(p *guest.Proc) error { p.Broadcast(pkt.ProtoRaw, 500, nil); return nil },
		func(p *guest.Proc) error {
			if a := p.Recv(); !a.Frame.Dst.IsBroadcast() {
				return fmt.Errorf("got a non-broadcast frame")
			}
			return nil
		})
}

// selfSend: rank 0 sends a frame to itself and receives it.
func selfSend() workloads.Workload {
	return rawProgram("self", func(p *guest.Proc) error { p.Send(0, pkt.ProtoRaw, 100, nil); p.Recv(); return nil }, idle)
}

// strayFrame: rank 0 sends to node 99, which does not exist.
func strayFrame() workloads.Workload {
	return rawProgram("stray", func(p *guest.Proc) error { p.Send(99, pkt.ProtoRaw, 100, nil); return nil }, idle)
}

// broadcastAdaptive: a broadcast between two long computes.
func broadcastAdaptive() workloads.Workload {
	phase := func(bcast bool) func(*guest.Proc) error {
		return func(p *guest.Proc) error {
			p.Compute(2 * simtime.Millisecond)
			if bcast {
				p.Broadcast(pkt.ProtoRaw, 100, nil)
			}
			p.Compute(500 * simtime.Microsecond)
			return nil
		}
	}
	return rawProgram("bcast-adaptive", phase(true), phase(false))
}

// walkView runs check, as a subtest per frame walk, on the run of the row
// prefix/walk, checked to have taken that walk in every quantum.
func walkView(t *testing.T, prefix string, check func(t *testing.T, d *diffRun)) {
	for walk, fw := range frameWalks {
		t.Run(fw.name, func(t *testing.T) {
			d := named(prefix + "/" + fw.name)
			st := d.complete(t).Stats
			if loose := walk == 0; loose && st.FastFullQuanta != st.Quanta || !loose && st.FastNodeQuanta != 0 {
				t.Fatalf("%d of %d quanta all-loose, %d loose node-quanta: not the walk under test", st.FastFullQuanta, st.Quanta, st.FastNodeQuanta)
			}
			check(t, d)
		})
	}
}

// TestBroadcastReachesAllPeers: a link-layer broadcast is delivered to every
// node except the sender, once each.
func TestBroadcastReachesAllPeers(t *testing.T) {
	walkView(t, "broadcast-6", func(t *testing.T, d *diffRun) {
		copies := make([]int, 6)
		for _, p := range d.got.rec.Packets {
			copies[p.Dst]++
		}
		if fmt.Sprint(copies) != "[0 1 1 1 1 1]" || d.got.res.Stats.Deliveries != 5 {
			t.Errorf("ranks received %v broadcast copies, %d deliveries", copies, d.got.res.Stats.Deliveries)
		}
	})
}

// TestSelfSendLoopsThroughSwitch: a frame addressed to the sender itself is
// routed like any other and arrives after the network latency.
func TestSelfSendLoopsThroughSwitch(t *testing.T) {
	walkView(t, "self-send-2", func(t *testing.T, d *diffRun) {
		if pkts := d.got.rec.Packets; len(pkts) != 1 || pkts[0].Dst != 0 || pkts[0].Arrival < simtime.Guest(simtime.Microsecond) {
			t.Errorf("self-send delivered as %+v, want one delivery after the NIC latency", pkts)
		}
	})
}

// TestUnknownMACIsCountedNotDelivered: traffic to a MAC outside the cluster
// is flooded nowhere but still loads the controller (counts as np).
func TestUnknownMACIsCountedNotDelivered(t *testing.T) {
	walkView(t, "unknown-mac-2", func(t *testing.T, d *diffRun) {
		if s := d.got.res.Stats; s.Packets != 1 || s.Deliveries != 0 {
			t.Errorf("stray frame: packets=%d deliveries=%d", s.Packets, s.Deliveries)
		}
	})
}

// TestBroadcastFeedsAdaptivePolicy: broadcast replicas count as traffic, so
// the quantum keeps Algorithm 1's law and collapses after the broadcast.
func TestBroadcastFeedsAdaptivePolicy(t *testing.T) {
	d := named("broadcast-adaptive-4")
	report(t, d.contracts)
	qs := d.got.rec.Quanta
	for i := 1; i < len(qs); i++ {
		if qs[i-1].Packets > 0 && qs[i].Q < qs[i-1].Q/10 {
			return
		}
	}
	t.Error("quantum never collapsed after the broadcast burst")
}
