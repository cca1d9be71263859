package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
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
	st2.observeQuanta(1, 50*simtime.Microsecond, 1)
	st2.observeQuanta(1, 10*simtime.Microsecond, 0)
	st2.observeQuanta(1, 80*simtime.Microsecond, 2)
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

// endCounter counts the run brackets a sink sees and keeps the last summary.
type endCounter struct {
	obs.Base
	starts, ends int
	sum          obs.RunSummary
}

func (c *endCounter) RunStart(obs.RunInfo)      { c.starts++ }
func (c *endCounter) RunEnd(sum obs.RunSummary) { c.ends++; c.sum = sum }

// stallingPolicy issues good quanta, then a non-positive one.
type stallingPolicy struct{ good int }

func (p *stallingPolicy) First() simtime.Duration { return p.Next(quantum.Feedback{}) }
func (p *stallingPolicy) Next(quantum.Feedback) simtime.Duration {
	if p.good--; p.good < 0 {
		return 0
	}
	return 10 * simtime.Microsecond
}
func (p *stallingPolicy) Name() string { return "stalling" }

// Every sink must see exactly one RunEnd per RunStart on every path out of
// both runners, with RunSummary.Err saying how the run ended: at the parent
// commit a guest-limit abort and a bad policy returned before RunEnd (and
// RunParallel did on every error), so the registry's run_active stayed 1 and
// -progress printed no final line. Run with -race for the goroutine runner.
func TestRunEndOnEveryExit(t *testing.T) {
	errBoom := errors.New("boom")
	prog := func(f func(rank int, p *guest.Proc) error) func(rank, size int) guest.Program {
		return func(rank, _ int) guest.Program {
			return func(p *guest.Proc) error { return f(rank, p) }
		}
	}
	compute := func(_ int, p *guest.Proc) error { p.Compute(50 * simtime.Microsecond); return nil }
	cases := []struct {
		name    string
		policy  func() quantum.Policy
		program func(rank, size int) guest.Program
		want    error // both runners' sentinel; nil: any error
		ok      bool
	}{
		{name: "completes", policy: fixed(10 * simtime.Microsecond), program: prog(compute), ok: true},
		{name: "guest limit", policy: fixed(100 * simtime.Microsecond),
			program: prog(func(rank int, p *guest.Proc) error {
				if rank == 0 {
					p.Recv() // nobody ever sends
				}
				return nil
			}),
			want: ErrGuestLimit},
		{name: "bad first quantum", policy: func() quantum.Policy { return &stallingPolicy{} }, program: prog(compute)},
		{name: "bad later quantum", policy: func() quantum.Policy { return &stallingPolicy{good: 2} }, program: prog(compute)},
		{name: "failing program", policy: fixed(10 * simtime.Microsecond),
			program: prog(func(rank int, p *guest.Proc) error {
				p.Compute(20 * simtime.Microsecond)
				if rank == 1 {
					return errBoom
				}
				return nil
			}),
			want: errBoom},
	}
	for _, c := range cases {
		for runner, run := range []func(Config) error{
			func(cfg Config) error { _, err := Run(cfg); return err },
			func(cfg Config) error { _, err := RunParallel(cfg, 0); return err },
		} {
			t.Run(fmt.Sprintf("%s/%s", c.name, []string{"Run", "RunParallel"}[runner]), func(t *testing.T) {
				first, second, reg := &endCounter{}, &endCounter{}, obs.NewRegistry()
				cfg := testConfig(2, workloads.Workload{New: c.program}, c.policy)
				cfg.MaxGuest = simtime.Guest(5 * simtime.Millisecond)
				cfg.Observer = obs.Multi(first, reg, second)
				err := run(cfg)
				if (err == nil) != c.ok {
					t.Fatalf("run returned %v", err)
				}
				if c.want != nil && !errors.Is(err, c.want) {
					t.Errorf("run returned %v, want %v", err, c.want)
				}
				for i, sink := range []*endCounter{first, second} {
					if sink.starts != 1 || sink.ends != 1 {
						t.Errorf("sink %d saw %d RunStart and %d RunEnd hooks, want one of each", i, sink.starts, sink.ends)
					}
					if sink.sum.Err != err {
						t.Errorf("sink %d: RunSummary.Err = %v, the run returned %v", i, sink.sum.Err, err)
					}
				}
				s := reg.Snapshot()
				if s.Gauges["run_active"] != 0 || s.Counters["runs_finished"] != 1 {
					t.Errorf("registry after the run: run_active = %d, runs_finished = %d",
						s.Gauges["run_active"], s.Counters["runs_finished"])
				}
				if int64(first.sum.Quanta) != s.Counters["quanta"] {
					t.Errorf("RunSummary counts %d quanta, the stream carried %d", first.sum.Quanta, s.Counters["quanta"])
				}
			})
		}
	}
}

// A workload that panics fails the run like one that returns an error: both
// runners name the rank and the quantum, close the stream with that error
// and leave no coroutine or goroutine behind, with the other ranks blocked in
// Recv. At the parent commit the panic unwound through Step and the engine and
// took the process down (RunParallel: killed the node goroutine). Loose and
// tight name the deterministic engine's two walks. Run with -race.
func TestGuestPanicIsRunError(t *testing.T) {
	const nodes, bad = 4, 2
	program := func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			if rank != bad {
				p.Recv() // nobody ever sends
				return nil
			}
			p.Compute(10 * simtime.Microsecond)
			panic("boom")
		}
	}
	engine := func(q simtime.Duration) func(obs.Observer) error {
		return func(o obs.Observer) error {
			cfg := testConfig(nodes, workloads.Workload{New: program}, fixed(q))
			cfg.Observer = o
			_, err := Run(cfg)
			return err
		}
	}
	for _, c := range []struct {
		name string
		run  func(obs.Observer) error
		want string
	}{
		{"Run/loose", engine(simtime.Microsecond), "cluster: rank 2 panicked in quantum 9: boom"},
		{"Run/tight", engine(100 * simtime.Microsecond), "cluster: rank 2 panicked in quantum 0: boom"},
		{"RunParallel", func(o obs.Observer) error {
			cfg := testConfig(nodes, workloads.Workload{New: program}, fixed(simtime.Microsecond))
			cfg.Observer = o
			_, err := RunParallel(cfg, 0)
			return err
		}, "cluster: rank 2 panicked in quantum 9: boom"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sink := &endCounter{}
			err := c.run(sink)
			if err == nil || err.Error() != c.want {
				t.Fatalf("run returned %v, want %q", err, c.want)
			}
			if sink.starts != 1 || sink.ends != 1 || sink.sum.Err != err {
				t.Errorf("sink saw %d RunStart and %d RunEnd hooks, RunSummary.Err = %v; want one of each and the run's error",
					sink.starts, sink.ends, sink.sum.Err)
			}
			// A node goroutine may still be between its last statement and its exit.
			for wait := 0; runtime.NumGoroutine() > before && wait < 100; wait++ {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines after the run, %d before: the run left some behind", after, before)
			}
		})
	}
}

// An engine panic outside guest code is a bug, not a run error: it must reach
// the caller.
func TestEnginePanicPropagates(t *testing.T) {
	cfg := testConfig(2, workloads.Silent(20*simtime.Microsecond), fixed(simtime.Microsecond))
	cfg.onPartition = func(*partitioning) bool { panic("engine bug") }
	defer func() {
		if p := recover(); p != "engine bug" {
			t.Errorf("recovered %v, want the hook's panic", p)
		}
	}()
	Run(cfg)
	t.Error("Run returned")
}
