package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
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
// same theorem: with Q <= T the *guest-time results* cannot depend on host
// speeds at all — the race that creates stragglers has been synchronized
// away.
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

// TestDeliveryConservation: every frame sent is delivered exactly once
// (unicast) or size-1 times (broadcast), and deliveries partition into
// exact + stragglers.
func TestDeliveryConservation(t *testing.T) {
	for _, q := range []simtime.Duration{simtime.Microsecond, 70 * simtime.Microsecond, simtime.Millisecond} {
		w := workloads.Phases(4, 120*simtime.Microsecond, 24<<10)
		res, rec := runRecorded(t, testConfig(6, w, fixed(q)))
		if res.Stats.Deliveries != len(rec.Packets) {
			t.Errorf("q=%v: %d deliveries but %d trace records", q, res.Stats.Deliveries, len(rec.Packets))
		}
		if res.Stats.Exact+res.Stats.Stragglers != res.Stats.Deliveries {
			t.Errorf("q=%v: exact %d + stragglers %d != deliveries %d",
				q, res.Stats.Exact, res.Stats.Stragglers, res.Stats.Deliveries)
		}
		for i, p := range rec.Packets {
			if p.Arrival < p.Ideal {
				t.Fatalf("q=%v: packet %d delivered before its ideal time (%v < %v)", q, i, p.Arrival, p.Ideal)
			}
			if !p.Straggler && p.Arrival != p.Ideal {
				t.Fatalf("q=%v: packet %d marked exact but delivered at %v vs ideal %v", q, i, p.Arrival, p.Ideal)
			}
			if p.Ideal < p.SendGuest {
				t.Fatalf("q=%v: packet %d ideal arrival precedes its send", q, i)
			}
		}
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

// TestQuantumTraceConsistency: quantum records tile guest time without gaps
// and host intervals are non-overlapping and increasing.
func TestQuantumTraceConsistency(t *testing.T) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
	res, rec := runRecorded(t, testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)))
	if len(rec.Quanta) != res.Stats.Quanta {
		t.Fatalf("trace has %d records for %d quanta", len(rec.Quanta), res.Stats.Quanta)
	}
	for i, q := range rec.Quanta {
		if q.Index != i {
			t.Errorf("record %d has index %d", i, q.Index)
		}
		if i == 0 {
			continue
		}
		prev := rec.Quanta[i-1]
		if q.Start != prev.Start.Add(prev.Q) {
			t.Errorf("quantum %d starts at %v, expected %v", i, q.Start, prev.Start.Add(prev.Q))
		}
		if q.HostStart != prev.HostEnd {
			t.Errorf("quantum %d host start %v != previous end %v", i, q.HostStart, prev.HostEnd)
		}
		if q.HostEnd < q.HostStart {
			t.Errorf("quantum %d negative host interval", i)
		}
	}
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

// logObs records every observer callback as one formatted line, so two
// runs' hook streams can be compared verbatim.
type logObs struct {
	lines []string
}

func (l *logObs) logf(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logObs) RunStart(info obs.RunInfo) { l.logf("run start %+v", info) }
func (l *logObs) RunEnd(sum obs.RunSummary) { l.logf("run end %+v", sum) }
func (l *logObs) QuantumStart(i int, s simtime.Guest, q simtime.Duration, h simtime.Host) {
	l.logf("q start %d %v %v %v", i, s, q, h)
}
func (l *logObs) QuantumPartition(i int, p *obs.Partitioning) { l.logf("q partition %d %+v", i, *p) }
func (l *logObs) QuantumEnd(rec obs.QuantumRecord)            { l.logf("q end %+v", rec) }
func (l *logObs) Packet(rec obs.PacketRecord)                 { l.logf("packet %+v", rec) }
func (l *logObs) NodePhase(node int, ph obs.Phase, gF, gT simtime.Guest, hF, hT simtime.Host) {
	l.logf("node %d %v %v->%v %v->%v", node, ph, gF, gT, hF, hT)
}

// TestObservedStreamDeterminism: two runs of the same config must produce
// identical Stats, identical recorded QuantumRecords/PacketRecords, and an
// identical sequence of observer callbacks — the streaming layer inherits
// the engine's replayability.
func TestObservedStreamDeterminism(t *testing.T) {
	w := workloads.Phases(4, 180*simtime.Microsecond, 24<<10)
	runOnce := func() (*Result, *obs.Recorder, *logObs) {
		cfg := testConfig(5, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
		lo := &logObs{}
		cfg.Observer = lo
		res, rec := runRecorded(t, cfg)
		return res, rec, lo
	}
	res1, rec1, log1 := runOnce()
	res2, rec2, log2 := runOnce()

	if res1.Stats != res2.Stats {
		t.Errorf("Stats differ between identical runs:\n%+v\n%+v", res1.Stats, res2.Stats)
	}
	if !reflect.DeepEqual(rec1.Quanta, rec2.Quanta) {
		t.Error("QuantumRecord traces differ between identical runs")
	}
	if !reflect.DeepEqual(rec1.Packets, rec2.Packets) {
		t.Error("PacketRecord traces differ between identical runs")
	}
	if len(log1.lines) != len(log2.lines) {
		t.Fatalf("callback streams differ in length: %d vs %d", len(log1.lines), len(log2.lines))
	}
	for i := range log1.lines {
		if log1.lines[i] != log2.lines[i] {
			t.Fatalf("callback %d differs:\n%s\n%s", i, log1.lines[i], log2.lines[i])
		}
	}
	if len(log1.lines) == 0 {
		t.Fatal("observer saw no callbacks")
	}
	// Every trace record must have streamed through a QuantumEnd hook.
	qe := 0
	for _, line := range log1.lines {
		if len(line) > 5 && line[:5] == "q end" {
			qe++
		}
	}
	if qe != len(rec1.Quanta) {
		t.Errorf("streamed %d QuantumEnd hooks, the recorder has %d records", qe, len(rec1.Quanta))
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

// packetOrderProbe records the observer stream like recorder and additionally
// groups packet records by quantum for delivery-order assertions.
type packetOrderProbe struct {
	recorder
	quanta [][]obs.PacketRecord
}

func (p *packetOrderProbe) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	p.recorder.QuantumStart(i, start, q, h)
	p.quanta = append(p.quanta, nil)
}

func (p *packetOrderProbe) Packet(rec obs.PacketRecord) {
	p.recorder.Packet(rec)
	p.quanta[len(p.quanta)-1] = append(p.quanta[len(p.quanta)-1], rec)
}

// randomFatTreeCase draws one random scenario — fat-tree geometry, workload,
// fixed quantum and (half the time) a fault plan with duplication, jitter
// and, where the workload tolerates it, loss — in the fastCase shape. Shared
// by the barrier-routing and quiet-pass property tests.
func randomFatTreeCase(rnd *rand.Rand, trial int) (c fastCase, q simtime.Duration) {
	nodes := 2 + rnd.Intn(7)
	net := &netmodel.Model{
		NIC: &netmodel.SimpleNIC{
			BaseLatency:    simtime.Duration(500+rnd.Intn(1500)) * simtime.Nanosecond,
			BytesPerSecond: 10e9,
		},
		Switch: &netmodel.FatTreeSwitch{
			Radix:       2 + rnd.Intn(3),
			EdgeLatency: simtime.Duration(500+rnd.Intn(1500)) * simtime.Nanosecond,
			CoreLatency: simtime.Duration(2+rnd.Intn(40)) * simtime.Microsecond,
		},
	}
	// Fault plans that drop frames pair only with the fire-and-forget
	// Uniform workload: a collective or request/reply protocol waits
	// forever for a lost message (the suite-wide convention, see
	// fastCases). Duplication and jitter alone are safe everywhere.
	var w workloads.Workload
	lossOK := false
	switch rnd.Intn(3) {
	case 0:
		w = workloads.Uniform(30+rnd.Intn(50), 500+rnd.Intn(3500),
			simtime.Duration(10+rnd.Intn(30))*simtime.Microsecond, rnd.Uint64())
		lossOK = true
	case 1:
		w = workloads.Phases(2+rnd.Intn(3),
			simtime.Duration(100+rnd.Intn(100))*simtime.Microsecond, 8<<10+rnd.Intn(24<<10))
	default:
		w = workloads.PingPong(10+rnd.Intn(20), 500+rnd.Intn(3500))
	}
	qs := []simtime.Duration{simtime.Microsecond, 2 * simtime.Microsecond,
		5 * simtime.Microsecond, 50 * simtime.Microsecond}
	q = qs[rnd.Intn(len(qs))]
	var plan *faults.Plan
	if rnd.Intn(2) == 0 {
		link := faults.Link{
			Dup:    rnd.Float64() * 0.25,
			Jitter: simtime.Duration(rnd.Intn(4000)) * simtime.Nanosecond,
		}
		if lossOK {
			link.Loss = rnd.Float64() * 0.25
		}
		plan = &faults.Plan{Seed: rnd.Uint64(), Default: link}
	}
	name := fmt.Sprintf("trial %d: %s ×%d Q=%v faults=%v", trial, w.Name, nodes, q, plan != nil)
	return fastCase{name: name, nodes: nodes, w: w, pol: fixed(q), faults: plan, net: net}, q
}

// TestBatchedRoutingCanonicalOrder is the barrier-routing property test: for
// random fat-tree geometries, workloads, quanta and fault plans (loss,
// duplication, delay jitter), the partitioned executor with its barrier-time
// routing loop must
//
//  1. match the reference walk, which routes one frame at a time through one
//     event queue over the whole cluster, and
//  2. on fully-eligible quanta (Q <= T), emit each quantum's packet records
//     in canonical (node, seq) order: sources ascending, and each source's
//     frames in send order, with fault-injected duplicates adjacent to
//     their originals.
func TestBatchedRoutingCanonicalOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(20260807))
	ordered := 0
	for trial := 0; trial < 10; trial++ {
		c, q := randomFatTreeCase(rnd, trial)
		name := c.name

		requireMatchesReference(t, name, runQuiet(t, c, true), runReference(t, c))

		probe := &packetOrderProbe{}
		cfg := c.config()
		cfg.Observer = probe
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if q > minLinkLat(c.net, c.nodes) {
			continue // some partition is tight: the barrier order is not total
		}
		ordered++
		for qi, pkts := range probe.quanta {
			for k := 1; k < len(pkts); k++ {
				prev, cur := pkts[k-1], pkts[k]
				if cur.Duplicate {
					if cur.Src != prev.Src || cur.SendGuest != prev.SendGuest {
						t.Errorf("%s: quantum %d packet %d: duplicate not adjacent to its original", name, qi, k)
					}
					continue
				}
				if cur.Src < prev.Src {
					t.Errorf("%s: quantum %d packet %d: source %d after %d — not canonical node order",
						name, qi, k, cur.Src, prev.Src)
				} else if cur.Src == prev.Src && cur.SendGuest < prev.SendGuest {
					t.Errorf("%s: quantum %d packet %d: send time %v after %v — not canonical send order",
						name, qi, k, cur.SendGuest, prev.SendGuest)
				}
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no trial exercised the fully-eligible order check — widen the quantum choices")
	}
}
