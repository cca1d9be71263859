package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// recorder captures the full observer stream for equality checks.
type recorder struct {
	events []string
}

func (r *recorder) RunStart(i obs.RunInfo)  { r.events = append(r.events, fmt.Sprintf("start %+v", i)) }
func (r *recorder) RunEnd(s obs.RunSummary) { r.events = append(r.events, fmt.Sprintf("end %+v", s)) }
func (r *recorder) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	r.events = append(r.events, fmt.Sprintf("q%d %v %v %v", i, start, q, h))
}
func (r *recorder) QuantumPartition(i int, p *obs.Partitioning) {
	r.events = append(r.events, fmt.Sprintf("part q%d %+v", i, *p))
}
func (r *recorder) QuantumEnd(rec obs.QuantumRecord) {
	r.events = append(r.events, fmt.Sprintf("qe %+v", rec))
}
func (r *recorder) Packet(rec obs.PacketRecord) {
	r.events = append(r.events, fmt.Sprintf("pkt %+v", rec))
}
func (r *recorder) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	r.events = append(r.events, fmt.Sprintf("ph n%d %v %v %v %v %v", node, ph, g0, g1, h0, h1))
}

// fastCases spans the behaviors every partitioning must preserve: lockstep
// traffic with equal-arrival ties (PingPong at 2 and 4 nodes), bursty
// compute/communicate phases, seeded irregular traffic, silence, loss
// injection, and an adaptive policy that moves in and out of the safe
// window mid-run.
type fastCase struct {
	name   string
	nodes  int
	w      workloads.Workload
	pol    func() quantum.Policy
	faults *faults.Plan
	// net overrides the default uniform paper fabric — non-uniform
	// topologies mix tight partitions and loose nodes whenever Q falls
	// between latency levels.
	net *netmodel.Model
}

func fastCases() []fastCase {
	return []fastCase{
		{name: "pingpong-2", nodes: 2, w: workloads.PingPong(30, 1000), pol: fixed(simtime.Microsecond)},
		{name: "pingpong-4", nodes: 4, w: workloads.PingPong(20, 4000), pol: fixed(simtime.Microsecond)},
		{name: "phases-4", nodes: 4, w: workloads.Phases(3, 150*simtime.Microsecond, 32<<10), pol: fixed(simtime.Microsecond)},
		{name: "phases-adaptive-5", nodes: 5, w: workloads.Phases(3, 150*simtime.Microsecond, 16<<10),
			pol: adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)},
		// Sixteen ranks in lockstep: the alltoall phases keep every node active
		// at once, which is what it takes for the walks to go to the pool.
		{name: "phases-16", nodes: 16, w: workloads.Phases(2, 40*simtime.Microsecond, 4<<10), pol: fixed(simtime.Microsecond)},
		{name: "uniform-3", nodes: 3, w: workloads.Uniform(60, 2000, 30*simtime.Microsecond, 11), pol: fixed(simtime.Microsecond)},
		{name: "uniform-lossy-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}},
		{name: "silent-4", nodes: 4, w: workloads.Silent(300 * simtime.Microsecond), pol: fixed(simtime.Microsecond)},
		// A fault plan exercising loss, duplication, and delay jitter: fault
		// decisions are pure per-frame functions, so they must not break
		// worker invariance or agreement with the reference walk.
		{name: "faulty-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}},
		// Per-node host slowdown shifts every host-time cost; results must
		// stay identical across worker counts and partitionings.
		{name: "slowdown-3", nodes: 3, w: workloads.PingPong(20, 1000), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5}}},
		// Rack topology at a quantum between the intra- and inter-rack levels:
		// two tight partitions, loose to each other, and no loose node.
		{name: "rack-mid-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 11),
			pol: fixed(2 * simtime.Microsecond), net: rackNet()},
		// Mixed rack + WAN: one tight rack plus distant loose singletons, the
		// motivating geometry for per-link lookahead; run it clean and with a
		// fault plan, and with an adaptive policy that slides across all
		// three bands (fully loose, partial, fully tight).
		{name: "mixed-wan-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
			pol: fixed(2 * simtime.Microsecond), net: mixedWANNet(8)},
		{name: "mixed-wan-faulty-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
			pol: fixed(2 * simtime.Microsecond), net: mixedWANNet(8),
			faults: &faults.Plan{Seed: 9, Default: faults.Link{Loss: 0.05, Dup: 0.1, Jitter: 3 * simtime.Microsecond}}},
		{name: "mixed-wan-adaptive-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 19),
			pol: adaptive(simtime.Microsecond, 200*simtime.Microsecond, 1.1, 0.02), net: mixedWANNet(8)},
	}
}

// mixedWANNet puts the first four nodes in one 500ns rack and every other
// node 50µs away from everything: a tight rack plus loose WAN singletons.
func mixedWANNet(nodes int) *netmodel.Model {
	return mixedWANNetAt(nodes, 50*simtime.Microsecond)
}

// mixedWANNetAt is mixedWANNet with the WAN latency given.
func mixedWANNetAt(nodes int, wan simtime.Duration) *netmodel.Model {
	lat := make([][]simtime.Duration, nodes)
	for s := range lat {
		lat[s] = make([]simtime.Duration, nodes)
		for d := range lat[s] {
			switch {
			case s == d:
			case s < 4 && d < 4:
				lat[s][d] = 500 * simtime.Nanosecond
			default:
				lat[s][d] = wan
			}
		}
	}
	m := netmodel.Paper()
	m.Switch = &netmodel.MatrixSwitch{Lat: lat}
	return m
}

// config builds the case's configuration for one engine; the caller attaches
// its sinks.
func (c fastCase) config() Config {
	cfg := testConfig(c.nodes, c.w, c.pol)
	if c.net != nil {
		cfg.Net = c.net
	}
	cfg.Faults = c.faults
	return cfg
}

// fastRun is one run of a case under both the full-stream test recorder and
// the production recording sink.
type fastRun struct {
	res    *Result
	stream *recorder
	rec    *obs.Recorder
}

func runFast(t *testing.T, c fastCase, reference bool) fastRun {
	t.Helper()
	r := fastRun{stream: &recorder{}, rec: &obs.Recorder{}}
	cfg := c.config()
	cfg.Observer = obs.Multi(r.stream, r.rec)
	if reference {
		cfg.onPartition = func(*partitioning) bool { return true }
		cfg.onQuiet = func(int, int) bool { return false }
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s reference=%v: %v", c.name, reference, err)
	}
	r.res = res
	return r
}

// obs.Recorder against the full stream: in one run under one obs.Multi, its
// slices must hold exactly the Packet and QuantumEnd hooks the test recorder
// saw, element for element in stream order — for the partitioned executor and
// for the reference walk — and the canonical encoding of the recorded run
// must not depend on which of the two produced it.
func TestRecorderStream(t *testing.T) {
	for _, c := range fastCases() {
		t.Run(c.name, func(t *testing.T) {
			var want []byte
			for _, reference := range []bool{false, true} {
				r := runFast(t, c, reference)
				var pkts, quanta []string
				for _, ev := range r.stream.events {
					switch {
					case strings.HasPrefix(ev, "pkt "):
						pkts = append(pkts, ev)
					case strings.HasPrefix(ev, "qe "):
						quanta = append(quanta, ev)
					}
				}
				if len(quanta) == 0 || len(quanta) != r.res.Stats.Quanta {
					t.Fatalf("reference=%v: stream carried %d QuantumEnd hooks, Stats.Quanta = %d", reference, len(quanta), r.res.Stats.Quanta)
				}
				if len(r.rec.Packets) != len(pkts) || len(r.rec.Quanta) != len(quanta) {
					t.Fatalf("reference=%v: recorder holds %d packets and %d quanta, the stream carried %d and %d",
						reference, len(r.rec.Packets), len(r.rec.Quanta), len(pkts), len(quanta))
				}
				for i, p := range r.rec.Packets {
					if got := fmt.Sprintf("pkt %+v", p); got != pkts[i] {
						t.Fatalf("reference=%v: packet %d:\n  recorder %s\n  stream   %s", reference, i, got, pkts[i])
					}
				}
				for i, q := range r.rec.Quanta {
					if got := fmt.Sprintf("qe %+v", q); got != quanta[i] {
						t.Fatalf("reference=%v: quantum %d:\n  recorder %s\n  stream   %s", reference, i, got, quanta[i])
					}
				}
				enc := CanonicalResult(r.res, r.rec)
				if want == nil {
					want = enc
				} else if !bytes.Equal(enc, want) {
					t.Error("CanonicalResult differs between the partitioned executor and the reference walk")
				}
			}
		})
	}
}

// Against the reference walk — one event queue over the whole cluster, every
// quantum stepped — the partitioned executor must reproduce every number:
// results, metrics, aggregate stats, the per-quantum records and the profiler
// report. Packet and NodePhase hooks compare as per-quantum multisets: the
// reference interleaves them in host-event order while a partitioned quantum
// publishes partition by partition and routes loose and cross-partition
// frames at the barrier in canonical (node, seq) order, but the records
// themselves are identical.
func TestFastPathMatchesClassicSemantics(t *testing.T) {
	for _, c := range append(fastCases(), sparseCase(15)) {
		t.Run(c.name, func(t *testing.T) {
			requireMatchesReference(t, "partitioned", runQuiet(t, c, true), runReference(t, c))
		})
	}
}

// The execution partitioning must take the shape the quantum size calls for:
// every node loose at ground truth (Q = 1µs <= T), the whole cluster one
// tight partition beyond the largest latency, and an adaptive policy crosses
// the boundary both ways mid-run.
func TestFastPathEngages(t *testing.T) {
	const nodes = 4
	count := func(pol func() quantum.Policy) (loose, tight int) {
		w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
		cfg := testConfig(nodes, w, pol)
		cfg.onPartition = func(p *partitioning) bool {
			switch {
			case len(p.loose) == nodes && len(p.tight) == 0:
				loose++
			case len(p.loose) == 0 && len(p.tight) == 1 && len(p.tight[0]) == nodes:
				tight++
			default:
				t.Errorf("uniform fabric: partitioning with %d loose nodes and %d tight partitions", len(p.loose), len(p.tight))
			}
			return false
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return
	}

	if loose, tight := count(fixed(simtime.Microsecond)); loose == 0 || tight != 0 {
		t.Errorf("ground truth: want every quantum all-loose, got loose=%d tight=%d", loose, tight)
	}
	if loose, tight := count(fixed(simtime.Millisecond)); loose != 0 || tight == 0 {
		t.Errorf("Q=1ms: want every quantum one tight partition, got loose=%d tight=%d", loose, tight)
	}
	if loose, tight := count(adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)); loose == 0 || tight == 0 {
		t.Errorf("adaptive: want a mix of shapes, got loose=%d tight=%d", loose, tight)
	}
}

// On the mixed topology a quantum between the latency levels must execute as
// one tight rack plus loose singletons — otherwise the bit-identity cases
// above pass vacuously on a whole-cluster walk — and the graded Stats
// accounting must not depend on how the quantum is executed: the reference
// walk reports the same counts.
func TestPartitionedPathEngagesPartially(t *testing.T) {
	c := fastCase{name: "mixed-wan-8", nodes: 8, w: workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17),
		pol: fixed(2 * simtime.Microsecond), net: mixedWANNet(8)}
	ref := runReference(t, c)
	s := ref.res.Stats
	if s.FastPartialQuanta == 0 || s.FastFullQuanta != 0 {
		t.Fatalf("Q=2µs mixed topology: want only partial engagement, got %+v", s)
	}
	// One tight 4-node rack + 4 loose WAN singletons, every quantum.
	if want := 4 * s.FastPartialQuanta; s.FastNodeQuanta != want {
		t.Errorf("FastNodeQuanta = %d, want %d", s.FastNodeQuanta, want)
	}
	if want := 5 * s.FastPartialQuanta; s.PartialPartitions != want {
		t.Errorf("PartialPartitions = %d, want %d", s.PartialPartitions, want)
	}
	cfg := c.config()
	cfg.onPartition = func(p *partitioning) bool {
		if len(p.loose) != 4 || len(p.tight) != 1 || len(p.tight[0]) != 4 {
			t.Errorf("executed with %d loose nodes and tight partitions %v, want 4 and one rack of 4", len(p.loose), p.tight)
		}
		return false
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, "partitioned", runQuiet(t, c, true), ref)
}
