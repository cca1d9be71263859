package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestEngineChromeTraceRoundTrip runs a real workload with the streaming
// tracer attached and verifies the output is valid Chrome trace-event JSON
// (the acceptance criterion for -trace-out).
func TestEngineChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tracer := obs.NewChromeTracer(&buf)
	w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
	cfg := testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	cfg.Observer = tracer
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}

	counts := map[string]int{}
	quantumB, quantumE := 0, 0
	for i, ev := range events {
		counts[ev.Ph]++
		switch ev.Ph {
		case "M", "X", "B", "E", "i", "C":
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.PID == 0 && ev.Ph != "M" {
			t.Fatalf("event %d: zero pid", i)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("event %d: negative ts/dur (%v/%v)", i, ev.TS, ev.Dur)
		}
		if ev.Name == "quantum" && ev.Ph == "B" {
			quantumB++
		}
		if ev.Name == "quantum" && ev.Ph == "E" {
			quantumE++
		}
	}
	for _, ph := range []string{"M", "X", "B", "E", "i"} {
		if counts[ph] == 0 {
			t.Errorf("trace contains no %q events (%v)", ph, counts)
		}
	}
	if quantumB != res.Stats.Quanta || quantumE != res.Stats.Quanta {
		t.Errorf("quantum spans B=%d E=%d, want %d each", quantumB, quantumE, res.Stats.Quanta)
	}

	// The busy/idle segments on node tracks must account for exactly the
	// host time the engine charged: the trace is the Figure 5 breakdown.
	var busyUS, idleUS float64
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "busy":
			busyUS += ev.Dur
		case "idle":
			idleUS += ev.Dur
		}
	}
	if want := res.Stats.HostBusy.Microseconds(); !closeTo(busyUS, want) {
		t.Errorf("trace busy segments sum to %vµs, Stats.HostBusy = %vµs", busyUS, want)
	}
	if want := res.Stats.HostIdle.Microseconds(); !closeTo(idleUS, want) {
		t.Errorf("trace idle segments sum to %vµs, Stats.HostIdle = %vµs", idleUS, want)
	}
}

// closeTo tolerates float rounding from the ns → µs conversion.
func closeTo(got, want float64) bool {
	d := got - want
	return d < 1e-3 && d > -1e-3
}

// TestRegistryMatchesStats: the live registry must agree with the post-hoc
// Stats on every shared quantity.
func TestRegistryMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	w := workloads.Phases(4, 120*simtime.Microsecond, 24<<10)
	cfg := testConfig(6, w, fixed(70*simtime.Microsecond))
	cfg.Observer = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"quanta", s.Counters["quanta"], int64(res.Stats.Quanta)},
		{"deliveries", s.Counters["deliveries"], int64(res.Stats.Deliveries)},
		{"stragglers", s.Counters["stragglers"], int64(res.Stats.Stragglers)},
		{"quantum_snaps", s.Counters["quantum_snaps"], int64(res.Stats.QuantumSnaps)},
		{"silent_quanta", s.Counters["silent_quanta"], int64(res.Stats.SilentQuanta)},
		{"packets", s.Counters["packets"], int64(res.Stats.Packets)},
		{"host_busy_ns", s.Counters["host_busy_ns"], int64(res.Stats.HostBusy)},
		// Idle phases are reported at their final extent, so this row holds
		// only if the truncate and re-aim refunds of the event-queue walk
		// (Q=70µs ties the cluster into one tight partition) are exact.
		{"host_idle_ns", s.Counters["host_idle_ns"], int64(res.Stats.HostIdle)},
		{"nodes_done", s.Counters["nodes_done"], int64(cfg.Nodes)},
		{"guest_ns", s.Gauges["guest_ns"], int64(res.GuestTime)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("registry %s = %d, Stats say %d", c.name, c.got, c.want)
		}
	}
	if d := s.Histograms["straggler_delay_ns"]; d.Sum != int64(res.Stats.StragglerDelay) {
		t.Errorf("straggler delay histogram sum %d, Stats say %d", d.Sum, int64(res.Stats.StragglerDelay))
	}
	var sent int64
	for _, n := range s.NodeSent {
		sent += n
	}
	if sent != int64(res.Stats.Deliveries) {
		t.Errorf("per-node sent counts sum to %d, want %d deliveries", sent, res.Stats.Deliveries)
	}
}

// TestObserverDoesNotPerturbRun: attaching observers must not change any
// simulation outcome.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	w := workloads.Phases(3, 200*simtime.Microsecond, 32<<10)
	mk := func() Config {
		return testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.04, 0.05))
	}
	plain, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	observed := mk()
	var buf bytes.Buffer
	observed.Observer = obs.Multi(obs.NewChromeTracer(&buf), obs.NewRegistry())
	got, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GuestTime != got.GuestTime || plain.HostTime != got.HostTime || plain.Stats != got.Stats {
		t.Errorf("observer changed the run:\nplain    %+v\nobserved %+v", plain.Stats, got.Stats)
	}
}

// TestStatsFinalize covers the MinQ sentinel fix: a Stats with no quanta
// must finalize to zeroes instead of leaking a sentinel, and MinQ must track
// the first observed quantum.
func TestStatsFinalize(t *testing.T) {
	var st Stats
	st.finalize(0)
	if st.MinQ != 0 || st.MeanQ != 0 {
		t.Errorf("empty Stats finalized to MinQ=%v MeanQ=%v, want zeroes", st.MinQ, st.MeanQ)
	}

	var st2 Stats
	st2.observeQuantum(50*simtime.Microsecond, 1)
	st2.observeQuantum(10*simtime.Microsecond, 0)
	st2.observeQuantum(80*simtime.Microsecond, 2)
	st2.finalize(float64(140 * simtime.Microsecond))
	if st2.MinQ != 10*simtime.Microsecond {
		t.Errorf("MinQ = %v, want 10µs", st2.MinQ)
	}
	if st2.MaxQ != 80*simtime.Microsecond {
		t.Errorf("MaxQ = %v, want 80µs", st2.MaxQ)
	}
	if st2.SilentQuanta != 1 {
		t.Errorf("SilentQuanta = %d, want 1", st2.SilentQuanta)
	}
	sum := float64(140 * simtime.Microsecond)
	if want := simtime.Duration(sum / 3); st2.MeanQ != want {
		t.Errorf("MeanQ = %v, want %v", st2.MeanQ, want)
	}
}
