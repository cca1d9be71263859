package cluster

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// testConfig builds a baseline config for n nodes running w.
func testConfig(n int, w workloads.Workload, pol func() quantum.Policy) Config {
	return Config{Nodes: n, Guest: guest.DefaultConfig(), Net: netmodel.Paper(), Host: host.DefaultParams(),
		Policy: pol, Program: w.New, MaxGuest: simtime.Guest(100 * simtime.Second)}
}

// runRecorded runs cfg with a fresh obs.Recorder and the sinks attached, and
// fails the test on a run error.
func runRecorded(t *testing.T, cfg Config, sinks ...obs.Observer) (*Result, *obs.Recorder) {
	t.Helper()
	rec := &obs.Recorder{}
	cfg.Observer = obs.Multi(append(sinks, rec)...)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

func fixed(q simtime.Duration) func() quantum.Policy {
	return func() quantum.Policy { return quantum.Fixed{Q: q} }
}

func adaptive(min, max simtime.Duration, inc, dec float64) func() quantum.Policy {
	return func() quantum.Policy { return quantum.NewAdaptive(min, max, inc, dec) }
}

// TestSilentRun: a silent workload takes its compute's guest time, one
// quantum per microsecond of it, and routes nothing.
func TestSilentRun(t *testing.T) {
	res := named("silent-4").complete(t)
	if res.GuestTime < simtime.Guest(300*simtime.Microsecond) || res.Stats.Packets != 0 || res.Stats.Quanta < 300 {
		t.Errorf("silent 300µs at Q=1µs: guest time %v, %d packets, %d quanta", res.GuestTime, res.Stats.Packets, res.Stats.Quanta)
	}
}

// rtt is rank 0's reported ping-pong round trip, 0 if it reported none.
func rtt(res *Result) float64 { v, _ := res.Metric("rtt_us"); return v }

func TestPingPongGroundTruthLatency(t *testing.T) {
	res := named("pingpong-2").complete(t)
	// Each leg: ~1µs wire latency + ~0.8µs serialization + guest overheads.
	if v := rtt(res); res.Stats.Stragglers != 0 || v < 2 || v > 20 {
		t.Errorf("ground truth: %d stragglers, RTT %.2fµs outside the plausible [2,20]µs band", res.Stats.Stragglers, v)
	}
}

func TestPingPongLargeQuantumInflatesLatency(t *testing.T) {
	base, big := named("pingpong-2").complete(t), named("pingpong-200us-2").complete(t)
	if rtt(big) <= rtt(base) || big.Stats.Stragglers == 0 || big.HostTime >= base.HostTime {
		t.Errorf("Q=200µs: RTT %.2fµs (ground truth %.2fµs), %d stragglers, host time %v (ground truth %v)",
			rtt(big), rtt(base), big.Stats.Stragglers, big.HostTime, base.HostTime)
	}
}

// TestDeterminism: an adaptive run repeats itself exactly.
func TestDeterminism(t *testing.T) { report(t, named("phases-adaptive-5").bareSame) }

func TestAdaptiveFasterThanGroundTruthOnPhases(t *testing.T) {
	base, dyn := named("phases-2ms-4").complete(t), named("phases-2ms-4/adaptive").complete(t)
	speedup := float64(base.HostTime) / float64(dyn.HostTime)
	tBase, _ := base.Metric("time_s")
	tDyn, _ := dyn.Metric("time_s")
	errRel := math.Abs(tDyn-tBase) / tBase
	t.Logf("adaptive speedup %.1fx, time error %.2f%%, quanta %d (mean Q %v)",
		speedup, errRel*100, dyn.Stats.Quanta, dyn.Stats.MeanQ)
	if speedup < 2 || errRel > 0.25 {
		t.Errorf("adaptive speedup %.2fx (want >= 2), time error %.1f%% (want <= 25%%) on a phase workload", speedup, errRel*100)
	}
}

// goroutineGauge reads the process's goroutine count at every barrier.
type goroutineGauge struct {
	obs.Base
	max int
}

func (g *goroutineGauge) QuantumEnd(obs.QuantumRecord) { g.max = max(g.max, runtime.NumGoroutine()) }

// Run executes on the calling goroutine alone: at no barrier of an all-loose
// run — the shape an intra-quantum worker pool would fan out — may the
// process hold more goroutines than it did before the call, plus the guests' own coroutines,
// which the runtime counts as goroutines although none ever runs beside the
// engine (each is started by its node's first Step and ended by Shutdown).
func TestRunIsSingleGoroutine(t *testing.T) {
	const nodes = 16
	cfg := testConfig(nodes, workloads.Phases(2, 50*simtime.Microsecond, 4<<10), fixed(simtime.Microsecond))
	g, before := &goroutineGauge{}, runtime.NumGoroutine()
	res, _ := runRecorded(t, cfg, g)
	if res.Stats.FastFullQuanta != res.Stats.Quanta {
		t.Fatalf("only %d of %d quanta were all-loose", res.Stats.FastFullQuanta, res.Stats.Quanta)
	}
	if g.max > before+nodes {
		t.Errorf("%d goroutines at a barrier of a %d-node run entered with %d: Run started %d of its own",
			g.max, nodes, before, g.max-before-nodes)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after Run, %d before: the run left some behind", after, before)
	}
}

// TestNoStragglersWhenQLeqT verifies the paper's safety condition: with the
// quantum no larger than the minimum network latency T, no packet can ever
// become a straggler, for any workload and node count — the Q = 1µs sweep
// rows, each a ground-truth row.
func TestNoStragglersWhenQLeqT(t *testing.T) {
	for _, r := range fixtureRows() {
		if !strings.HasSuffix(r.name, "/Q=1µs") || !strings.HasPrefix(r.name, "synthetic.") {
			continue
		}
		if !r.groundTruth() {
			t.Fatalf("%s: test premise broken: Q = 1µs > T", r.name)
		}
		if s := r.run().complete(t).Stats; s.Stragglers != 0 || s.QuantumSnaps != 0 || s.Deliveries != s.Exact {
			t.Errorf("%s: Q <= T produced %d stragglers (%d snaps), %d of %d deliveries exact",
				r.name, s.Stragglers, s.QuantumSnaps, s.Exact, s.Deliveries)
		}
	}
}

// TestGroundTruthInvariantToHostModel verifies the deeper version of the
// paper's safety condition: with Q <= T the guest-visible results cannot
// depend on the host at all — the race that creates stragglers has been
// synchronized away. Each ground-truth matrix row's twin on a perturbed host
// (hostTwins) must show its guests exactly what the row shows.
func TestGroundTruthInvariantToHostModel(t *testing.T) {
	for _, twin := range hostTwins() {
		orig, d := named(strings.TrimSuffix(twin.name, "/host")), twin.run()
		if diff := guestOf(d.complete(t), d.got.rec.Packets).diff(guestOf(orig.complete(t), orig.got.rec.Packets)); diff != "" {
			t.Errorf("%s: the guest projection depends on the host model: %s", twin.name, diff)
		}
	}
}

// TestDeliveryConservation: at a quantum below the lookahead, between and far
// above it, the run keeps the contracts — every frame delivered as often as
// conservation says, each delivery exact or a straggler, none before its
// ideal arrival.
func TestDeliveryConservation(t *testing.T) {
	for _, q := range []string{"1µs", "70µs", "1ms"} {
		d := named("phases-6/Q=" + q)
		d.complete(t)
		report(t, d.contracts)
	}
}

// TestAccuracyMonotonicityCoarse: host time falls as Q grows, for a
// communication-bearing workload.
func TestAccuracyMonotonicityCoarse(t *testing.T) {
	var prev simtime.Duration
	for i, q := range []string{"1µs", "10µs", "100µs", "1ms"} {
		host := named("phases-48k-4/Q=" + q).complete(t).HostTime
		if i > 0 && host >= prev {
			t.Errorf("host time did not fall at Q = %s: %v -> %v", q, prev, host)
		}
		prev = host
	}
}

// TestQuantumTraceConsistency: under an adaptive policy the quantum records
// tile guest and host time without a gap, each Q within the run's range —
// the quantum half of the contracts.
func TestQuantumTraceConsistency(t *testing.T) {
	d := named("phases-adaptive-4")
	d.complete(t)
	report(t, d.contracts)
}

// TestAdaptiveQuantumRespondsToTraffic: on every adaptive row, quanta
// carrying packets are followed by smaller or equal quanta and silent ones
// by larger or equal ones (Algorithm 1's law in checkContracts, observed
// end-to-end through the engine), and the quantum moves.
func TestAdaptiveQuantumRespondsToTraffic(t *testing.T) {
	for _, r := range allRows() {
		if _, ok := r.cfg.Policy().(*quantum.Adaptive); ok {
			t.Run(r.name, func(t *testing.T) {
				d := r.run()
				if report(t, d.contracts); d.complete(t).Stats.MaxQ <= d.got.res.Stats.MinQ {
					t.Error("adaptive quantum never moved")
				}
			})
		}
	}
}

// TestDeterminismProperty: identical configs yield identical results across
// random workload shapes, topologies and fault plans: each random row's
// probed run is its unobserved one.
func TestDeterminismProperty(t *testing.T) {
	for _, r := range trialRows(20260807, 10) {
		report(t, r.run().bareSame)
	}
}

// TestObservedStreamDeterminism: a second observed run of the same config
// produces the same Result, records, profiler report and stream — the
// streaming layer inherits the engine's replayability.
func TestObservedStreamDeterminism(t *testing.T) {
	a := named("phases-adaptive-5").stream()
	b := observe(Run, a.cfg)
	ap, bp := *a.streamProbe, *b.streamProbe
	ap.info.LinkLat, bp.info.LinkLat = nil, nil // a func, equal only to nil
	if len(a.phases) == 0 || len(a.pkts) == 0 || !reflect.DeepEqual(a.res, b.res) || !reflect.DeepEqual(a.rec, b.rec) ||
		!reflect.DeepEqual(a.prof, b.prof) || !reflect.DeepEqual(ap, bp) {
		t.Error("two runs of one configuration differ in their Result, records, profile or stream, or streamed nothing")
	}
}

// TestErrorPaths: Run rejects every malformed configuration.
func TestErrorPaths(t *testing.T) {
	for name := range invalidConfigs {
		if _, err := invalidRun(name); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGuestLimitAborts: a workload far longer than MaxGuest aborts cleanly,
// at the guest limit, as it does on the reference.
func TestGuestLimitAborts(t *testing.T) {
	d := named("pingpong-2/maxguest")
	report(t, d.shape, d.same)
}

func TestZeroQuantumPolicyRejected(t *testing.T) {
	if _, err := invalidRun("zero quantum"); err == nil {
		t.Error("zero-quantum policy accepted")
	}
}

// TestHostTimeBreakdown: the busy/idle/barrier accounting must be sane —
// non-negative, with barriers equal to quanta × barrier cost plus packet
// occupancy, and busy time close to total compute × slowdown.
func TestHostTimeBreakdown(t *testing.T) {
	d := named("phases-20us-4")
	st, h := d.complete(t).Stats, d.got.cfg.Host
	// 4 nodes × 3 phases × 300µs of compute at ~20x slowdown, plus protocol
	// overheads: busy must be within a factor of the nominal compute cost.
	nominal := simtime.Duration(float64(4*3*300*simtime.Microsecond) * h.BusySlowdown)
	barrier := simtime.Duration(st.Quanta)*h.BarrierCost + simtime.Duration(st.Packets)*h.PacketHostCost
	if st.HostIdle < 0 || st.HostBarrier != barrier || st.HostBusy < nominal || st.HostBusy > nominal*2 {
		t.Errorf("busy %v (want within [%v, %v]), idle %v, barrier %v (want %v)", st.HostBusy, nominal, nominal*2, st.HostIdle, st.HostBarrier, barrier)
	}
}

// TestBatchedRoutingCanonicalOrder is the barrier-routing order property: on
// every row of the table, the packet records of the frames each quantum
// routes at the barrier — those whose source and destination lie in
// different partitions, every frame of a fully eligible run (Q <= T) — come
// in canonical (node, seq) order: sources ascending, and each source's frames
// in send order, with fault-injected duplicates adjacent to their originals.
func TestBatchedRoutingCanonicalOrder(t *testing.T) {
	ordered := 0
	for _, r := range allRows() {
		s := r.run().stream()
		parts := make([]*obs.Partitioning, len(s.starts)) // by start index, nil without a lookahead
		qi := 0
		for _, h := range s.order {
			switch h.kind {
			case hookStart:
				qi = int(h.i)
			case hookPartition:
				parts[qi] = s.parts[h.i]
			}
		}
		var prev *taggedPacket
		for k := range s.pkts {
			cur := &s.pkts[k]
			if p := parts[cur.qi]; p == nil || p.Part[cur.rec.Src] == p.Part[cur.rec.Dst] {
				continue // routed by a tight partition's walk
			}
			ordered++
			switch {
			case prev == nil || cur.qi != prev.qi:
			case cur.rec.Duplicate:
				if cur.rec.Src != prev.rec.Src || cur.rec.SendGuest != prev.rec.SendGuest {
					t.Errorf("%s: quantum %d packet %d: duplicate not adjacent to its original", r.name, cur.qi, k)
				}
			case cur.rec.Src < prev.rec.Src || cur.rec.Src == prev.rec.Src && cur.rec.SendGuest < prev.rec.SendGuest:
				t.Errorf("%s: quantum %d packet %d: %+v after %+v — not canonical (node, send) order", r.name, cur.qi, k, cur.rec, prev.rec)
			}
			prev = cur
		}
	}
	if ordered == 0 {
		t.Fatal("no row routed a frame at the barrier")
	}
}
