package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestEngineChromeTraceRoundTrip: the streams of rows that take both walks,
// fixed and adaptive quanta, stragglers and silence, replayed into the
// streaming tracer, are valid Chrome trace-event JSON (the acceptance
// criterion for -trace-out): one quantum span per quantum, busy and idle
// segments that sum to exactly the host time the engine charged (the
// Figure 5 breakdown), and every packet instant inside the span of the
// quantum that routed it.
func TestEngineChromeTraceRoundTrip(t *testing.T) {
	for _, name := range []string{"pingpong-2", "pingpong-4", "phases-4", "phases-adaptive-5", "phases-adaptive-4",
		"silent-4", "slowdown-3", "pingpong-200us-2", "phases-100us-4"} {
		t.Run(name, func(t *testing.T) {
			d := named(name)
			s := d.complete(t).Stats
			var buf bytes.Buffer
			tracer := obs.NewChromeTracer(&buf)
			d.stream().replay(tracer)
			if err := tracer.Close(); err != nil {
				t.Fatalf("tracer error: %v", err)
			}
			var events []struct {
				Name, Cat, Ph string
				PID           int
				TS, Dur       float64
			}
			if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
				t.Fatalf("trace is not a JSON event array: %v", err)
			}
			counts := map[string]int{}
			var open, busy, idle float64
			var instants []float64 // the open quantum's packet instants
			for i, ev := range events {
				counts[ev.Ph]++
				if !strings.Contains("MXBEiC", ev.Ph) || len(ev.Ph) != 1 || ev.PID == 0 && ev.Ph != "M" || ev.TS < 0 || ev.Dur < 0 {
					t.Fatalf("event %d: phase %q, pid %d, ts %v, dur %v", i, ev.Ph, ev.PID, ev.TS, ev.Dur)
				}
				switch {
				case ev.Name == "quantum" && ev.Ph == "B":
					if len(instants) > 0 {
						t.Fatalf("event %d: %d packet instants outside every quantum", i, len(instants))
					}
					open = ev.TS
				case ev.Cat == "net":
					instants = append(instants, ev.TS)
				case ev.Name == "quantum" && ev.Ph == "E":
					for _, ts := range instants {
						if ts < open || ts > ev.TS {
							t.Fatalf("a packet instant at %vµs lies outside its quantum's span [%v, %v]µs", ts, open, ev.TS)
						}
					}
					instants = instants[:0]
				case ev.Name == "busy":
					busy += ev.Dur
				case ev.Name == "idle":
					idle += ev.Dur
				}
			}
			// Float rounding from the ns -> µs conversion stays far below 1ns.
			if counts["M"]*counts["X"]*counts["i"] == 0 || counts["B"] != s.Quanta || counts["E"] != s.Quanta ||
				math.Abs(busy-s.HostBusy.Microseconds()) > 1e-3 || math.Abs(idle-s.HostIdle.Microseconds()) > 1e-3 {
				t.Errorf("trace events by phase %v (want M, X and i, and B and E once per quantum of %d); busy and idle sum to %vµs and %vµs, Stats to %vµs and %vµs",
					counts, s.Quanta, busy, idle, s.HostBusy.Microseconds(), s.HostIdle.Microseconds())
			}
		})
	}
}

// TestObserverDoesNotPerturbRun: on every matrix row, the run with the
// probe, a recorder and a profiler attached is the unobserved run.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for _, r := range matrixRows() {
		report(t, r.run().bareSame)
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
	us := simtime.Microsecond
	st.observeQuanta(1, 50*us, 1)
	st.observeQuanta(1, 10*us, 0)
	st.observeQuanta(1, 80*us, 2)
	st.finalize(float64(140 * us))
	if st.MinQ != 10*us || st.MaxQ != 80*us || st.SilentQuanta != 1 || st.MeanQ != simtime.Duration(float64(140*us)/3) {
		t.Errorf("quanta of 50, 10 and 80µs, one silent, finalized to %+v", st)
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
// RunParallel did on every error), so no sink learned how the run ended and
// -progress printed no final line. Run with -race for the goroutine runner.
func TestRunEndOnEveryExit(t *testing.T) {
	errBoom := errors.New("boom")
	compute := func(d simtime.Duration, err error) func(*guest.Proc) error {
		return func(p *guest.Proc) error { p.Compute(d); return err }
	}
	computes := rawProgram("compute", compute(50*simtime.Microsecond, nil), compute(50*simtime.Microsecond, nil))
	cases := []struct {
		name   string
		policy func() quantum.Policy
		w      workloads.Workload
		want   error // both runners' sentinel; nil: any error
	}{
		{"completes", fixed(10 * simtime.Microsecond), computes, nil},
		{"guest limit", fixed(100 * simtime.Microsecond), stuck(), ErrGuestLimit},
		{"bad first quantum", func() quantum.Policy { return &stallingPolicy{} }, computes, nil},
		{"bad later quantum", func() quantum.Policy { return &stallingPolicy{good: 2} }, computes, nil},
		{"failing program", fixed(10 * simtime.Microsecond),
			rawProgram("fail", compute(20*simtime.Microsecond, nil), compute(20*simtime.Microsecond, errBoom)), errBoom},
	}
	for _, c := range cases {
		for _, rn := range runners {
			t.Run(c.name+"/"+rn.name, func(t *testing.T) {
				first, second, p := &endCounter{}, &endCounter{}, prof.New()
				cfg := testConfig(2, c.w, c.policy)
				cfg.MaxGuest = simtime.Guest(5 * simtime.Millisecond)
				cfg.Observer = obs.Multi(first, p, second)
				_, err := rn.run(cfg)
				if (err == nil) != (c.name == "completes") || c.want != nil && !errors.Is(err, c.want) {
					t.Fatalf("run returned %v, want %v", err, c.want)
				}
				for i, sink := range []*endCounter{first, second} {
					if sink.starts != 1 || sink.ends != 1 || sink.sum.Err != err {
						t.Errorf("sink %d saw %d RunStart and %d RunEnd hooks, RunSummary.Err %v; want one of each and the run's %v",
							i, sink.starts, sink.ends, sink.sum.Err, err)
					}
				}
				rep := p.Report()
				if rep.Complete != (err == nil) || int64(first.sum.Quanta) != rep.Quanta || int64(first.sum.GuestTime) != rep.GuestNS {
					t.Errorf("profiler after the run: complete %v, %d quanta, guest %dns; RunSummary counts %d quanta to %v",
						rep.Complete, rep.Quanta, rep.GuestNS, first.sum.Quanta, first.sum.GuestTime)
				}
			})
		}
	}
}

// runners are the two ways to run a configuration.
var runners = []struct {
	name string
	run  func(Config) (*Result, error)
}{
	{"Run", Run},
	{"RunParallel", func(cfg Config) (*Result, error) { return RunParallel(cfg, 0) }},
}

// A workload that panics fails the run like one that returns an error: both
// runners name the rank and the quantum, close the stream with that error
// and leave no coroutine or goroutine behind, with the other ranks blocked in
// Recv. At the parent commit the panic unwound through Step and the engine and
// took the process down (RunParallel: killed the node goroutine). Loose and
// tight name the deterministic engine's two walks. Run with -race.
func TestGuestPanicIsRunError(t *testing.T) {
	program := func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			if rank != 2 {
				p.Recv() // nobody ever sends
				return nil
			}
			p.Compute(10 * simtime.Microsecond)
			panic("boom")
		}
	}
	for _, c := range []struct {
		name string
		run  func(Config) (*Result, error)
		q    simtime.Duration
		want string
	}{
		{"Run/loose", Run, simtime.Microsecond, "cluster: rank 2 panicked in quantum 9: boom"},
		{"Run/tight", Run, 100 * simtime.Microsecond, "cluster: rank 2 panicked in quantum 0: boom"},
		{"RunParallel", runners[1].run, simtime.Microsecond, "cluster: rank 2 panicked in quantum 9: boom"},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sink := &endCounter{}
			cfg := testConfig(4, workloads.Workload{New: program}, fixed(c.q))
			cfg.Observer = sink
			_, err := c.run(cfg)
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

// panickyObserver panics in the first quantum's QuantumStart hook.
type panickyObserver struct{ obs.Base }

func (panickyObserver) QuantumStart(int, simtime.Guest, simtime.Duration, simtime.Host) {
	panic("engine bug")
}

// A panic outside guest code — here an observer hook's — is a bug, not a run
// error: it must reach the caller.
func TestEnginePanicPropagates(t *testing.T) {
	cfg := testConfig(2, workloads.Silent(20*simtime.Microsecond), fixed(simtime.Microsecond))
	cfg.Observer = panickyObserver{}
	defer func() {
		if p := recover(); p != "engine bug" {
			t.Errorf("recovered %v, want the hook's panic", p)
		}
	}()
	Run(cfg)
	t.Error("Run returned")
}

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestProfilerReconciliation: the profiler's segment accounting reconciles
// exactly with the engine's Stats — compute with HostBusy, idle with
// HostIdle, and routing+barrier with HostBarrier — on every profRows row.
// Nothing the profiler prints is a re-derivation: it is the same charge
// stream the engine used. At workers=2 the report is that of a run with the
// unread Workers stub set and the profiler attached as Config.Profiler, and
// must be the probed run's.
func TestProfilerReconciliation(t *testing.T) {
	for _, r := range profRows() {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", r.name, workers), func(t *testing.T) {
				d := r.run()
				s, rep := d.complete(t).Stats, d.got.rep
				if workers == 2 && !bytes.Equal(d.profiledReport(t), d.got.prof) {
					t.Error("the Config.Profiler run's report differs from the probed run's")
				}
				tot := rep.Totals
				got := []int64{rep.Quanta, rep.Packets, rep.Stragglers, tot.ComputeNS, tot.IdleNS, tot.RoutingNS + tot.BarrierNS}
				want := []int64{int64(s.Quanta), int64(s.Packets), int64(s.Stragglers), int64(s.HostBusy), int64(s.HostIdle), int64(s.HostBarrier)}
				if !rep.Complete || !slices.Equal(got, want) {
					t.Errorf("report (complete: %v) has quanta, packets, stragglers, compute, idle, routing+barrier %v; Stats %v", rep.Complete, got, want)
				}
				var compute, idle, wait int64
				for _, n := range rep.PerNode {
					compute, idle, wait = compute+n.ComputeNS, idle+n.IdleNS, wait+n.WaitNS
				}
				if compute != tot.ComputeNS || idle != tot.IdleNS || wait != tot.WaitNS {
					t.Errorf("per-node sums (%d,%d,%d) != totals (%d,%d,%d)",
						compute, idle, wait, tot.ComputeNS, tot.IdleNS, tot.WaitNS)
				}
				checkPartitionTable(t, rep, s)
			})
		}
	}
}

// checkPartitionTable holds the report's partition table, its one statement
// of engagement, to the engine's Stats.Fast* counters while both exist: the
// rows whose every node is loose count the fully engaged quanta, the rows
// with some loose nodes the partially engaged ones and their partitions, the
// loose nodes over all rows the loose node-quanta, and the rows cover every
// quantum unless the configuration rules lookahead out, when there are none.
func checkPartitionTable(t *testing.T, rep *prof.Report, s Stats) {
	t.Helper()
	var rows, full, partial, partialParts, looseQuanta int64
	for _, lv := range rep.Partitions {
		rows += lv.Quanta
		looseQuanta += int64(lv.Loose) * lv.Quanta
		switch {
		case lv.Loose == rep.Nodes:
			full += lv.Quanta
		case lv.Loose > 0:
			partial += lv.Quanta
			partialParts += int64(lv.Partitions) * lv.Quanta
		}
	}
	got := []int64{full, partial, partialParts, looseQuanta}
	want := []int64{int64(s.FastFullQuanta), int64(s.FastPartialQuanta), int64(s.PartialPartitions), int64(s.FastNodeQuanta)}
	if !slices.Equal(got, want) {
		t.Errorf("partition table gives full, partial, partial partitions, loose node-quanta %v; Stats %v", got, want)
	}
	switch {
	case rep.LookaheadNS == 0 && len(rep.Partitions) != 0:
		t.Errorf("lookahead ruled out, yet the partition table has %d rows", len(rep.Partitions))
	case rep.LookaheadNS > 0 && rows != rep.Quanta:
		t.Errorf("partition rows count %d quanta, want all %d", rows, rep.Quanta)
	}
}

// TestProfilerReportGolden pins the report document of the rack-10us-8 row,
// its one run labelled with the row's name, against a committed golden file
// (regenerate with -update). CI's report-smoke job renders the same file
// with simprof.
func TestProfilerReportGolden(t *testing.T) {
	const label = "rack-10us-8"
	d := named(label)
	d.complete(t)
	doc := &prof.SweepReport{Schema: prof.SweepSchema, Runs: []prof.SweepRun{{Label: label, Report: d.got.rep}}}
	got := doc.JSON()
	path := filepath.Join("testdata", "profile_rack.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/cluster/ -run Golden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from %s (regenerate with -update if intended)", path)
	}
}

// TestProfilerMinLatencyLinksRack: on a rack topology the links tied at the
// lookahead are exactly the intra-rack links (they gate the global
// lookahead), ranked under the report's one cap; the level that binds each
// rack ranks the same links first.
func TestProfilerMinLatencyLinksRack(t *testing.T) {
	d := named("rack-mid-8")
	d.complete(t)
	rep := d.got.rep
	if want := int64(minLinkLat(d.got.cfg.Net, 8)); rep.LookaheadNS != want {
		t.Errorf("lookahead %d, want the matrix minimum %d", rep.LookaheadNS, want)
	}
	// 2 racks × 4 nodes → 4×3 directed intra-rack pairs per rack.
	if rep.MinLatencyTied != 24 || len(rep.MinLatencyLinks) != 16 {
		t.Fatalf("min-latency ties = %d, links listed = %d, want 16 of 24", rep.MinLatencyTied, len(rep.MinLatencyLinks))
	}
	for _, l := range rep.MinLatencyLinks {
		if l.Src/4 != l.Dst/4 || l.LatencyNS != rep.LookaheadNS {
			t.Errorf("min-latency link %s (latency %d) crosses racks or misses the lookahead %d", prof.LinkName(l.Src, l.Dst), l.LatencyNS, rep.LookaheadNS)
		}
	}
	for _, lv := range rep.Partitions {
		if lv.TightLinkCount >= 24 && !slices.Equal(lv.TightLinks, rep.MinLatencyLinks) {
			t.Errorf("level %d ranks %v first, want the min-latency links %v", lv.MaxTightLatNS, lv.TightLinks, rep.MinLatencyLinks)
		}
	}
}

// TestProfilerFaultsUseIdealLatency: slack accounting must be computed from
// the pre-fault ideal latency — jitter shifts arrivals, not the lookahead
// bound — so a jittery run's frame latency histogram floor equals the clean
// run's.
func TestProfilerFaultsUseIdealLatency(t *testing.T) {
	floor := func(rep *prof.Report) int64 {
		i := slices.IndexFunc(rep.Hists, func(h prof.NamedHist) bool { return h.Name == "frame_latency_ns" })
		if i < 0 {
			t.Fatal("frame_latency_ns histogram missing")
		}
		return rep.Hists[i].Hist.Min
	}
	clean, jittery := named("uniform-150-4"), named("uniform-150-4/jitter")
	clean.complete(t)
	jittery.complete(t)
	if c, j := floor(clean.got.rep), floor(jittery.got.rep); c != j {
		t.Errorf("jitter leaked into ideal latency floor: clean min %d, jittery min %d", c, j)
	}
}

// TestParallelProfilerSmoke: the wall-clock runner fires the same hooks the
// profiler reads; its report must be internally consistent (per-node wait sums
// to the total, idle is always zero — parallel nodes jump, they don't
// spin) even though the numbers are real time and not reproducible.
func TestParallelProfilerSmoke(t *testing.T) {
	p := prof.New()
	res := runParallel(t, testConfig(4, workloads.PingPong(20, 1000), fixed(simtime.Microsecond)), 0, p)
	rep := p.Report()
	var wait int64
	for _, n := range rep.PerNode {
		wait += n.WaitNS
	}
	if rep.Engine != "parallel" || !rep.Complete || rep.Quanta != int64(res.Stats.Quanta) || rep.Totals.IdleNS != 0 ||
		wait != rep.Totals.WaitNS || len(rep.Partitions) != 1 || rep.Partitions[0].Loose != 4 || rep.Partitions[0].Quanta != rep.Quanta {
		t.Errorf("report: engine %q, complete %v, %d quanta (Stats %d), idle %d (want 0, a free jump), wait %d (nodes sum to %d), partition table %+v (want every quantum fully loose at Q=1µs)",
			rep.Engine, rep.Complete, rep.Quanta, res.Stats.Quanta, rep.Totals.IdleNS, rep.Totals.WaitNS, wait, rep.Partitions)
	}
}

// TestProfilerNilIsNoop: a run without a profiler behaves identically to one
// with it — the profiler observes, never participates.
func TestProfilerNilIsNoop(t *testing.T) { report(t, named("phases-4").bareSame) }

// TestProfilerStreamReplay: the Observer stream is everything the profiler
// knows. A run's logged stream, replayed into a fresh profiler, must
// reproduce the live report byte for byte — faults, jitter and slowdown
// included, on every partitioning — whether the stream is Run's own or the
// reference engine's, and whether the live profiler was one sink of
// Config.Observer (workers=0) or attached as Config.Profiler (workers=2). It
// fails the day the engine feeds the profiler anything the stream does not
// carry.
func TestProfilerStreamReplay(t *testing.T) {
	for _, r := range profRows() {
		for _, workers := range []int{0, 2} {
			for _, reference := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/reference=%t", r.name, workers, reference), func(t *testing.T) {
					d, replayed := r.run(), prof.New()
					live := d.got.prof
					if workers == 2 {
						live = d.profiledReport(t)
					}
					got := d.refReplay
					if !reference {
						d.stream().replay(replayed)
						got = replayed.Report().JSON()
					}
					if !bytes.Equal(got, live) {
						t.Errorf("replayed report differs from the live one:\n%s\nvs\n%s", got, live)
					}
				})
			}
		}
	}
}
