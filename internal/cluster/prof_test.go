package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// rackNet builds a two-level fat-tree: racks of 4 nodes behind edge
// switches (500ns) joined by a core layer (+2µs). Intra-rack links gate the
// fast-path lookahead; cross-rack links have 2µs more slack.
func rackNet() *netmodel.Model {
	m := netmodel.Paper()
	m.Switch = &netmodel.FatTreeSwitch{Radix: 4, EdgeLatency: 500 * simtime.Nanosecond, CoreLatency: 2 * simtime.Microsecond}
	return m
}

// profCases reuses the fast-path behavior matrix: the attribution must
// reconcile on every workload shape the engine supports, faults included.
func profCases() []fastCase {
	cases := fastCases()
	return append(cases, fastCase{
		name: "phases-100us-4", nodes: 4,
		w:   workloads.Phases(3, 150*simtime.Microsecond, 32<<10),
		pol: fixed(100 * simtime.Microsecond),
	})
}

// TestProfilerReconciliation: with a profiler attached, the per-node
// segment accounting must reconcile exactly with the engine's Stats on
// both engine paths — compute with HostBusy, idle with HostIdle, and
// routing+barrier with HostBarrier. This is the acceptance bar that makes
// the report trustworthy: nothing the profiler prints is a re-derivation,
// it is the same charge stream the engine used.
func TestProfilerReconciliation(t *testing.T) {
	for _, c := range profCases() {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				p := prof.New()
				cfg := testConfig(c.nodes, c.w, c.pol)
				cfg.Workers = workers
				cfg.Faults = c.faults
				cfg.Profiler = p
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep := p.Report()

				if !rep.Complete {
					t.Error("report not marked complete after a finished run")
				}
				if rep.Quanta != int64(res.Stats.Quanta) {
					t.Errorf("report quanta %d, stats %d", rep.Quanta, res.Stats.Quanta)
				}
				if rep.Packets != int64(res.Stats.Packets) {
					t.Errorf("report packets %d, stats %d", rep.Packets, res.Stats.Packets)
				}
				if rep.Stragglers != int64(res.Stats.Stragglers) {
					t.Errorf("report stragglers %d, stats %d", rep.Stragglers, res.Stats.Stragglers)
				}
				if rep.Totals.ComputeNS != int64(res.Stats.HostBusy) {
					t.Errorf("compute %d != HostBusy %d", rep.Totals.ComputeNS, int64(res.Stats.HostBusy))
				}
				if rep.Totals.IdleNS != int64(res.Stats.HostIdle) {
					t.Errorf("idle %d != HostIdle %d", rep.Totals.IdleNS, int64(res.Stats.HostIdle))
				}
				if got := rep.Totals.RoutingNS + rep.Totals.BarrierNS; got != int64(res.Stats.HostBarrier) {
					t.Errorf("routing+barrier %d != HostBarrier %d", got, int64(res.Stats.HostBarrier))
				}

				var compute, idle, wait int64
				for _, n := range rep.PerNode {
					compute += n.ComputeNS
					idle += n.IdleNS
					wait += n.WaitNS
				}
				if compute != rep.Totals.ComputeNS || idle != rep.Totals.IdleNS || wait != rep.Totals.WaitNS {
					t.Errorf("per-node sums (%d,%d,%d) != totals (%d,%d,%d)",
						compute, idle, wait, rep.Totals.ComputeNS, rep.Totals.IdleNS, rep.Totals.WaitNS)
				}

				var causeSum int64
				for _, cc := range rep.Engagement.Causes {
					causeSum += cc.Quanta
				}
				if causeSum != rep.Quanta {
					t.Errorf("cause counts sum to %d, want %d", causeSum, rep.Quanta)
				}
			})
		}
	}
}

// TestProfilerReportWorkerInvariant: the canonical JSON must be
// byte-identical for any worker count, fast path or classic engine. The
// eligibility semantics (Q <= lookahead, tap) deliberately exclude the
// Workers gate so this holds.
func TestProfilerReportWorkerInvariant(t *testing.T) {
	run := func(workers int) []byte {
		p := prof.New()
		cfg := testConfig(8, workloads.Uniform(120, 2000, 30*simtime.Microsecond, 11),
			adaptive(simtime.Microsecond, 100*simtime.Microsecond, 1.05, 0.02))
		cfg.Net = rackNet()
		cfg.Workers = workers
		cfg.Profiler = p
		if _, err := Run(cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return p.Report().JSON()
	}
	base := run(0)
	for _, workers := range []int{1, 3} {
		if got := run(workers); !bytes.Equal(base, got) {
			t.Errorf("report bytes differ between workers=0 and workers=%d", workers)
		}
	}
}

// TestProfilerReportGolden pins the full report artifact for a fixed
// rack-topology run against a committed golden file (regenerate with
// -update). CI's report-smoke job checks the same bytes from the CLI.
func TestProfilerReportGolden(t *testing.T) {
	p := prof.New()
	cfg := testConfig(8, workloads.Uniform(120, 2000, 30*simtime.Microsecond, 11), fixed(10*simtime.Microsecond))
	cfg.Net = rackNet()
	cfg.Profiler = p
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	got := p.Report().JSON()

	path := filepath.Join("testdata", "profile_rack.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run Golden -update ./internal/cluster/)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report drifted from %s (regenerate with -update if intended)", path)
	}
}

// TestProfilerLimitingLinksRack: on a rack topology the static minimum-
// latency probe must name exactly the intra-rack links (they gate the
// global lookahead), and the observed limiting-links ranking must put an
// intra-rack link first — cross-rack frames carry 2µs more slack.
func TestProfilerLimitingLinksRack(t *testing.T) {
	p := prof.New()
	cfg := testConfig(8, workloads.Uniform(200, 2000, 20*simtime.Microsecond, 17), fixed(2*simtime.Microsecond))
	cfg.Net = rackNet()
	cfg.Profiler = p
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()

	if want := int64(minLinkLat(cfg.Net, 8)); rep.LookaheadNS != want {
		t.Errorf("lookahead %d, want the matrix minimum %d", rep.LookaheadNS, want)
	}
	// 2 racks × 4 nodes → 4×3 directed intra-rack pairs per rack.
	if rep.MinLatencyTied != 24 {
		t.Errorf("min-latency ties = %d, want 24", rep.MinLatencyTied)
	}
	if len(rep.MinLatencyLinks) != 24 {
		t.Fatalf("min-latency links listed = %d, want 24", len(rep.MinLatencyLinks))
	}
	for _, l := range rep.MinLatencyLinks {
		if l.Src/4 != l.Dst/4 {
			t.Errorf("min-latency link %s crosses racks", prof.LinkName(l.Src, l.Dst))
		}
		if l.LatencyNS != rep.LookaheadNS {
			t.Errorf("min-latency link %s latency %d != lookahead %d",
				prof.LinkName(l.Src, l.Dst), l.LatencyNS, rep.LookaheadNS)
		}
	}
	if len(rep.LimitingLinks) == 0 {
		t.Fatal("no limiting links observed")
	}
	first := rep.LimitingLinks[0]
	if first.Src/4 != first.Dst/4 {
		t.Errorf("tightest observed link %s crosses racks", prof.LinkName(first.Src, first.Dst))
	}
	for i := 1; i < len(rep.LimitingLinks); i++ {
		if rep.LimitingLinks[i].SlackNS < rep.LimitingLinks[i-1].SlackNS {
			t.Errorf("limiting links not sorted by slack at %d", i)
		}
	}
}

// TestProfilerFaultsUseIdealLatency: slack accounting must be computed from
// the pre-fault ideal latency — jitter shifts arrivals, not the lookahead
// bound — so a jittery run reports the same static link floor and its
// frame latency histogram floor equals the clean run's.
func TestProfilerFaultsUseIdealLatency(t *testing.T) {
	run := func(plan *faults.Plan) *prof.Report {
		p := prof.New()
		cfg := testConfig(4, workloads.Uniform(150, 1500, 20*simtime.Microsecond, 23), fixed(simtime.Microsecond))
		cfg.Faults = plan
		cfg.Profiler = p
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return p.Report()
	}
	clean := run(nil)
	jittery := run(&faults.Plan{Seed: 7, Default: faults.Link{Jitter: 5 * simtime.Microsecond}})
	var cleanHist, jitterHist *prof.HistData
	for i := range clean.Hists {
		if clean.Hists[i].Name == "frame_latency_ns" {
			cleanHist = &clean.Hists[i].Hist
		}
	}
	for i := range jittery.Hists {
		if jittery.Hists[i].Name == "frame_latency_ns" {
			jitterHist = &jittery.Hists[i].Hist
		}
	}
	if cleanHist == nil || jitterHist == nil {
		t.Fatal("frame_latency_ns histogram missing")
	}
	if cleanHist.Min != jitterHist.Min {
		t.Errorf("jitter leaked into ideal latency floor: clean min %d, jittery min %d",
			cleanHist.Min, jitterHist.Min)
	}
}

// TestParallelProfilerSmoke: the wall-clock runner fires the same hooks the
// profiler reads; its report must be internally consistent (per-node wait sums
// to the total, idle is always zero — parallel nodes jump, they don't
// spin) even though the numbers are real time and not reproducible.
func TestParallelProfilerSmoke(t *testing.T) {
	p := prof.New()
	cfg := testConfig(4, workloads.PingPong(20, 1000), fixed(simtime.Microsecond))
	cfg.Profiler = p
	res, err := RunParallel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Engine != "parallel" {
		t.Errorf("engine %q, want parallel", rep.Engine)
	}
	if !rep.Complete {
		t.Error("report not marked complete")
	}
	if rep.Quanta != int64(res.Stats.Quanta) {
		t.Errorf("report quanta %d, stats %d", rep.Quanta, res.Stats.Quanta)
	}
	if rep.Totals.IdleNS != 0 {
		t.Errorf("parallel idle = %d, want 0 (idle is a free jump)", rep.Totals.IdleNS)
	}
	var wait int64
	for _, n := range rep.PerNode {
		wait += n.WaitNS
	}
	if wait != rep.Totals.WaitNS {
		t.Errorf("per-node wait sums to %d, total %d", wait, rep.Totals.WaitNS)
	}
	if rep.Engagement.EligibleQuanta != rep.Quanta {
		t.Errorf("Q=1µs run: eligible %d of %d quanta", rep.Engagement.EligibleQuanta, rep.Quanta)
	}
}

// TestProfilerNilIsNoop: a run without a profiler must behave identically
// to one with it — the profiler observes, never participates.
func TestProfilerNilIsNoop(t *testing.T) {
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 32<<10), fixed(simtime.Microsecond))
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profiler = prof.New()
	profiled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.GuestTime != profiled.GuestTime || bare.HostTime != profiled.HostTime || bare.Stats != profiled.Stats {
		t.Errorf("profiler changed the run:\nbare     %+v\nprofiled %+v", bare.Stats, profiled.Stats)
	}
}

// tape records an Observer stream as the calls that replay it.
type tape []func(obs.Observer)

func (t *tape) RunStart(i obs.RunInfo)  { *t = append(*t, func(o obs.Observer) { o.RunStart(i) }) }
func (t *tape) RunEnd(s obs.RunSummary) { *t = append(*t, func(o obs.Observer) { o.RunEnd(s) }) }
func (t *tape) QuantumStart(i int, g simtime.Guest, q simtime.Duration, h simtime.Host) {
	*t = append(*t, func(o obs.Observer) { o.QuantumStart(i, g, q, h) })
}
func (t *tape) QuantumPartition(i int, p *obs.Partitioning) {
	*t = append(*t, func(o obs.Observer) { o.QuantumPartition(i, p) })
}
func (t *tape) QuantumEnd(r obs.QuantumRecord) {
	*t = append(*t, func(o obs.Observer) { o.QuantumEnd(r) })
}
func (t *tape) Packet(r obs.PacketRecord) { *t = append(*t, func(o obs.Observer) { o.Packet(r) }) }
func (t *tape) NodePhase(n int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	*t = append(*t, func(o obs.Observer) { o.NodePhase(n, ph, g0, g1, h0, h1) })
}

// TestProfilerStreamReplay: the Observer stream is everything the profiler
// knows. One run's recorded stream, replayed into a fresh profiler, must
// reproduce the report of the profiler that was attached live, byte for byte
// — faults, jitter and slowdown included, on every partitioning and on the
// whole-cluster reference walk. It fails the day the engine feeds the
// profiler anything the stream does not carry.
func TestProfilerStreamReplay(t *testing.T) {
	for _, c := range profCases() {
		for _, workers := range []int{0, 2} {
			for _, reference := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/reference=%t", c.name, workers, reference), func(t *testing.T) {
					live, rec := prof.New(), &tape{}
					cfg := testConfig(c.nodes, c.w, c.pol)
					if c.net != nil {
						cfg.Net = c.net
					}
					cfg.Workers = workers
					cfg.Faults = c.faults
					cfg.Observer = rec
					cfg.Profiler = live
					if reference {
						cfg.onPartition = func(*partitioning) bool { return true }
					}
					if _, err := Run(cfg); err != nil {
						t.Fatal(err)
					}
					replayed := prof.New()
					for _, call := range *rec {
						call(replayed)
					}
					if got, want := replayed.Report().JSON(), live.Report().JSON(); !bytes.Equal(got, want) {
						t.Errorf("replayed report differs from the live one:\n%s\nvs\n%s", got, want)
					}
				})
			}
		}
	}
}
