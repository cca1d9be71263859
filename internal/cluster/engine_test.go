package cluster

import (
	"runtime"
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
	return Config{
		Nodes:    n,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   pol,
		Program:  w.New,
		MaxGuest: simtime.Guest(100 * simtime.Second),
	}
}

// runRecorded runs cfg with a fresh obs.Recorder attached beside whatever
// observer it already names, and fails the test on a run error.
func runRecorded(t *testing.T, cfg Config) (*Result, *obs.Recorder) {
	t.Helper()
	rec := &obs.Recorder{}
	cfg.Observer = obs.Multi(cfg.Observer, rec)
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

func TestSilentRun(t *testing.T) {
	w := workloads.Silent(500 * simtime.Microsecond)
	res, err := Run(testConfig(4, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestTime < simtime.Guest(500*simtime.Microsecond) {
		t.Errorf("guest time %v shorter than the workload's compute", res.GuestTime)
	}
	if res.Stats.Packets != 0 {
		t.Errorf("silent workload routed %d packets", res.Stats.Packets)
	}
	if res.Stats.Quanta < 500 {
		t.Errorf("expected ~500 quanta at Q=1µs, got %d", res.Stats.Quanta)
	}
}

func TestPingPongGroundTruthLatency(t *testing.T) {
	w := workloads.PingPong(50, 1000)
	res, err := Run(testConfig(2, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stragglers != 0 {
		t.Fatalf("ground truth (Q=1µs <= T) produced %d stragglers", res.Stats.Stragglers)
	}
	rtt, ok := res.Metric("rtt_us")
	if !ok {
		t.Fatal("rank 0 did not report rtt_us")
	}
	// Each leg: ~1µs wire latency + ~0.8µs serialization + guest overheads.
	if rtt < 2 || rtt > 20 {
		t.Errorf("ground-truth RTT %.2fµs outside the plausible [2,20]µs band", rtt)
	}
	t.Logf("ground-truth RTT: %.3fµs over %d quanta", rtt, res.Stats.Quanta)
}

func TestPingPongLargeQuantumInflatesLatency(t *testing.T) {
	w := workloads.PingPong(50, 1000)
	base, err := Run(testConfig(2, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(testConfig(2, w, fixed(100*simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	rttBase, _ := base.Metric("rtt_us")
	rttBig, _ := big.Metric("rtt_us")
	if rttBig <= rttBase {
		t.Errorf("Q=100µs RTT %.2fµs not above ground truth %.2fµs", rttBig, rttBase)
	}
	if big.Stats.Stragglers == 0 {
		t.Error("Q=100µs ping-pong produced no stragglers")
	}
	if big.HostTime >= base.HostTime {
		t.Errorf("Q=100µs host time %v not below ground truth %v", big.HostTime, base.HostTime)
	}
	t.Logf("RTT: base %.2fµs big %.2fµs; host: base %v big %v; stragglers %d snaps %d",
		rttBase, rttBig, base.HostTime, big.HostTime, big.Stats.Stragglers, big.Stats.QuantumSnaps)
}

func TestDeterminism(t *testing.T) {
	w := workloads.Phases(5, 200*simtime.Microsecond, 64<<10)
	run := func() *Result {
		res, err := Run(testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.GuestTime != b.GuestTime || a.HostTime != b.HostTime {
		t.Errorf("non-deterministic results: (%v,%v) vs (%v,%v)",
			a.GuestTime, a.HostTime, b.GuestTime, b.HostTime)
	}
	if a.Stats != b.Stats {
		t.Errorf("non-deterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestAdaptiveFasterThanGroundTruthOnPhases(t *testing.T) {
	w := workloads.Phases(4, 2*simtime.Millisecond, 32<<10)
	base, err := Run(testConfig(4, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)))
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base.HostTime) / float64(dyn.HostTime)
	tBase, _ := base.Metric("time_s")
	tDyn, _ := dyn.Metric("time_s")
	errRel := (tDyn - tBase) / tBase
	if errRel < 0 {
		errRel = -errRel
	}
	t.Logf("adaptive speedup %.1fx, time error %.2f%%, quanta %d (mean Q %v)",
		speedup, errRel*100, dyn.Stats.Quanta, dyn.Stats.MeanQ)
	if speedup < 2 {
		t.Errorf("adaptive speedup %.2fx too small on a phase workload", speedup)
	}
	if errRel > 0.25 {
		t.Errorf("adaptive time error %.1f%% too large", errRel*100)
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
// process hold more
// goroutines than it did before the call, plus the guests' own coroutines,
// which the runtime counts as goroutines although none ever runs beside the
// engine (each is started by its node's first Step and ended by Shutdown).
func TestRunIsSingleGoroutine(t *testing.T) {
	const nodes = 16
	cfg := testConfig(nodes, workloads.Phases(2, 50*simtime.Microsecond, 4<<10), fixed(simtime.Microsecond))
	g := &goroutineGauge{}
	cfg.Observer = g
	before := runtime.NumGoroutine()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
