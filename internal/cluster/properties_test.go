package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestNoStragglersWhenQLeqT verifies the paper's safety condition: with the
// quantum no larger than the minimum network latency T, no packet can ever
// become a straggler, for any workload and node count.
func TestNoStragglersWhenQLeqT(t *testing.T) {
	ws := []workloads.Workload{
		workloads.PingPong(30, 9000),
		workloads.Phases(3, 150*simtime.Microsecond, 32<<10),
		workloads.Uniform(15, 3000, 20*simtime.Microsecond, 7),
	}
	for _, w := range ws {
		for _, nodes := range []int{2, 5, 8} {
			cfg := testConfig(nodes, w, fixed(simtime.Microsecond))
			T := minLinkLat(cfg.Net, nodes)
			if simtime.Duration(simtime.Microsecond) > T {
				t.Fatalf("test premise broken: Q=1µs > T=%v", T)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s ×%d: %v", w.Name, nodes, err)
			}
			if res.Stats.Stragglers != 0 || res.Stats.QuantumSnaps != 0 {
				t.Errorf("%s ×%d: Q<=T produced %d stragglers (%d snaps)",
					w.Name, nodes, res.Stats.Stragglers, res.Stats.QuantumSnaps)
			}
			if res.Stats.Deliveries != res.Stats.Exact {
				t.Errorf("%s ×%d: %d deliveries but %d exact", w.Name, nodes, res.Stats.Deliveries, res.Stats.Exact)
			}
		}
	}
}

// TestGroundTruthInvariantToHostModel verifies the deeper version of the
// paper's safety condition — with the quantum no larger than the minimum
// network latency T no packet can become a straggler, which checkContracts
// holds every differential row to: with Q <= T the *guest-time results*
// cannot depend on host speeds at all — the race that creates stragglers has
// been synchronized away.
func TestGroundTruthInvariantToHostModel(t *testing.T) {
	w := workloads.Phases(3, 100*simtime.Microsecond, 16<<10)
	base := testConfig(4, w, fixed(simtime.Microsecond))
	res1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := base
	perturbed.Host.Seed = 999
	perturbed.Host.BusySlowdown = 3
	perturbed.Host.IdleSlowdown = 2.5
	perturbed.Host.JitterSigma = 0.5
	res2, err := Run(perturbed)
	if err != nil {
		t.Fatal(err)
	}
	if res1.GuestTime != res2.GuestTime {
		t.Errorf("ground-truth guest time depends on the host model: %v vs %v", res1.GuestTime, res2.GuestTime)
	}
	m1, _ := res1.Metric("time_s")
	m2, _ := res2.Metric("time_s")
	if m1 != m2 {
		t.Errorf("ground-truth metric depends on the host model: %v vs %v", m1, m2)
	}
}

// TestDeliveryConservation: at a quantum below the lookahead, between and far
// above it, the run keeps the contracts — every frame delivered as often as
// conservation says, each delivery exact or a straggler, none before its
// ideal arrival.
func TestDeliveryConservation(t *testing.T) {
	for _, q := range []simtime.Duration{simtime.Microsecond, 70 * simtime.Microsecond, simtime.Millisecond} {
		o := observe(Run, testConfig(6, workloads.Phases(4, 120*simtime.Microsecond, 24<<10), fixed(q)))
		if o.err != nil {
			t.Fatalf("q=%v: %v", q, o.err)
		}
		checkContracts(t, fmt.Sprintf("q=%v", q), o)
	}
}

// TestAccuracyMonotonicityCoarse: accuracy error at Q=1ms should not be
// better than at Q=1µs-ground-truth-equivalents, and host time should fall
// as Q grows, for a communication-bearing workload.
func TestAccuracyMonotonicityCoarse(t *testing.T) {
	w := workloads.Phases(5, 200*simtime.Microsecond, 48<<10)
	var hosts []simtime.Duration
	for _, q := range []simtime.Duration{simtime.Microsecond, 10 * simtime.Microsecond, 100 * simtime.Microsecond, simtime.Millisecond} {
		res, err := Run(testConfig(4, w, fixed(q)))
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, res.HostTime)
	}
	for i := 1; i < len(hosts); i++ {
		if hosts[i] >= hosts[i-1] {
			t.Errorf("host time did not fall from Q step %d: %v -> %v", i, hosts[i-1], hosts[i])
		}
	}
}

// TestQuantumTraceConsistency: under an adaptive policy the quantum records
// tile guest and host time without a gap, each Q within the run's range —
// the quantum half of the contracts.
func TestQuantumTraceConsistency(t *testing.T) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
	o := observe(Run, testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)))
	if o.err != nil {
		t.Fatal(o.err)
	}
	checkContracts(t, "adaptive", o)
}

// TestAdaptiveQuantumRespondsToTraffic: quanta carrying packets must be
// followed by smaller quanta; long silences by growth (Algorithm 1 observed
// end-to-end through the engine).
func TestAdaptiveQuantumRespondsToTraffic(t *testing.T) {
	w := workloads.Phases(3, 500*simtime.Microsecond, 16<<10)
	res, rec := runRecorded(t, testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)))
	violations := 0
	for i := 1; i < len(rec.Quanta); i++ {
		prev, cur := rec.Quanta[i-1], rec.Quanta[i]
		if prev.Packets > 0 && cur.Q > prev.Q {
			violations++
		}
		if prev.Packets == 0 && cur.Q < prev.Q {
			violations++
		}
	}
	if violations > 0 {
		t.Errorf("%d Algorithm-1 violations in the quantum trace", violations)
	}
	if res.Stats.MaxQ <= res.Stats.MinQ {
		t.Error("adaptive quantum never moved")
	}
}

// TestDeterminismProperty: identical configs yield identical results across
// a range of random workload shapes.
func TestDeterminismProperty(t *testing.T) {
	f := func(phases, computeUs, burstKB uint8, seed uint16) bool {
		w := workloads.Uniform(int(phases%8)+2, int(burstKB)*100+100,
			simtime.Duration(computeUs%100+10)*simtime.Microsecond, uint64(seed))
		cfg := testConfig(3, w, adaptive(simtime.Microsecond, 500*simtime.Microsecond, 1.04, 0.05))
		a, err := Run(cfg)
		if err != nil {
			return false
		}
		b, err := Run(cfg)
		if err != nil {
			return false
		}
		return a.GuestTime == b.GuestTime && a.HostTime == b.HostTime && a.Stats == b.Stats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestObservedStreamDeterminism: two runs of the same config must produce the
// same Result, records, profiler report and sequence of observer callbacks —
// the streaming layer inherits the engine's replayability.
func TestObservedStreamDeterminism(t *testing.T) {
	c := fastCase{name: "phases-5", nodes: 5, w: workloads.Phases(4, 180*simtime.Microsecond, 24<<10),
		pol: adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)}
	a, b := runObserved(t, c), runObserved(t, c)
	if len(a.probe.phases) == 0 || len(a.probe.pkts) == 0 {
		t.Fatal("observer saw no callbacks")
	}
	if !reflect.DeepEqual(a.res, b.res) || !reflect.DeepEqual(a.rec, b.rec) || !bytes.Equal(a.prof, b.prof) {
		t.Error("two runs of one configuration differ in their Result, records or profile")
	}
	if !reflect.DeepEqual(a.probe, b.probe) {
		t.Error("two runs of one configuration streamed different callbacks")
	}
}

// TestErrorPaths exercises config validation.
func TestErrorPaths(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	bad := []func(c *Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.Policy = nil },
		func(c *Config) { c.Program = nil },
		func(c *Config) { c.Host.BusySlowdown = -1 },
	}
	for i, mod := range bad {
		cfg := testConfig(2, w, fixed(simtime.Microsecond))
		mod(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGuestLimitAborts(t *testing.T) {
	// A workload far longer than MaxGuest must abort cleanly.
	cfg := testConfig(2, workloads.PingPong(1000000, 100), fixed(simtime.Microsecond))
	cfg.MaxGuest = simtime.Guest(500 * simtime.Microsecond)
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("run past MaxGuest returned no error")
	}
}

func TestZeroQuantumPolicyRejected(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	cfg := testConfig(2, w, func() quantum.Policy { return quantum.Fixed{Q: 0} })
	if _, err := Run(cfg); err == nil {
		t.Error("zero-quantum policy accepted")
	}
}

// TestHostTimeBreakdown: the busy/idle/barrier accounting must be sane —
// non-negative, with barriers equal to quanta × barrier cost plus packet
// occupancy, and busy time close to total compute × slowdown.
func TestHostTimeBreakdown(t *testing.T) {
	w := workloads.Phases(3, 300*simtime.Microsecond, 16<<10)
	cfg := testConfig(4, w, fixed(20*simtime.Microsecond))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.HostBusy <= 0 || st.HostIdle < 0 || st.HostBarrier <= 0 {
		t.Fatalf("nonsense breakdown: busy=%v idle=%v barrier=%v", st.HostBusy, st.HostIdle, st.HostBarrier)
	}
	wantBarrier := simtime.Duration(st.Quanta)*cfg.Host.BarrierCost +
		simtime.Duration(st.Packets)*cfg.Host.PacketHostCost
	if st.HostBarrier != wantBarrier {
		t.Errorf("barrier accounting %v, want %v", st.HostBarrier, wantBarrier)
	}
	// 4 nodes × 3 phases × 300µs of compute at ~20x slowdown, plus protocol
	// overheads: busy must be within a factor of the nominal compute cost.
	nominal := simtime.Duration(float64(4*3*300*simtime.Microsecond) * cfg.Host.BusySlowdown)
	if st.HostBusy < nominal || st.HostBusy > nominal*2 {
		t.Errorf("busy accounting %v outside [%v, %v]", st.HostBusy, nominal, nominal*2)
	}
	t.Logf("breakdown: busy=%v idle=%v barrier=%v (host total %v)", st.HostBusy, st.HostIdle, st.HostBarrier, res.HostTime)
}

// TestBatchedRoutingCanonicalOrder is the barrier-routing order property: for
// random fat-tree geometries, workloads, quanta and fault plans (loss,
// duplication, delay jitter) — TestDifferential's random rows — a fully
// eligible run (Q <= T) emits each quantum's packet records in canonical
// (node, seq) order: sources ascending, and each source's frames in send
// order, with fault-injected duplicates adjacent to their originals.
func TestBatchedRoutingCanonicalOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260807))
	ordered := 0
	for trial := 0; trial < 10; trial++ {
		c, q := randomFatTreeCase(rnd, trial)
		name := c.name
		if q > minLinkLat(c.net, c.nodes) {
			continue // some partition is tight: the barrier order is not total
		}
		ordered++
		pkts := runObserved(t, c).probe.pkts
		for k := 1; k < len(pkts); k++ {
			prev, cur, qi := pkts[k-1].rec, pkts[k].rec, pkts[k].qi
			switch {
			case qi != pkts[k-1].qi:
			case cur.Duplicate:
				if cur.Src != prev.Src || cur.SendGuest != prev.SendGuest {
					t.Errorf("%s: quantum %d packet %d: duplicate not adjacent to its original", name, qi, k)
				}
			case cur.Src < prev.Src:
				t.Errorf("%s: quantum %d packet %d: source %d after %d — not canonical node order",
					name, qi, k, cur.Src, prev.Src)
			case cur.Src == prev.Src && cur.SendGuest < prev.SendGuest:
				t.Errorf("%s: quantum %d packet %d: send time %v after %v — not canonical send order",
					name, qi, k, cur.SendGuest, prev.SendGuest)
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no trial exercised the fully-eligible order check — widen the quantum choices")
	}
}
