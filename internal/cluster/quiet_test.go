package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// quietProbe records what the quiet pass is allowed to reorder — the
// NodePhase hooks, tagged with their quantum so sorting yields per-quantum
// multisets — apart from what it must leave in place: every quantum and
// packet hook, in stream order.
type quietProbe struct {
	obs.Base
	qi      int
	phases  []phaseHook
	ordered []any        // quantum starts, QuantumRecords, PacketRecords
	pkts    map[int]int  // quantum -> packet hooks seen in it
	done    map[int]bool // quantum -> a node finished in it
	sum     obs.RunSummary
}

type phaseHook struct {
	qi, node int
	ph       obs.Phase
	g0, g1   simtime.Guest
	h0, h1   simtime.Host
}

type quantumStart struct {
	qi    int
	start simtime.Guest
	q     simtime.Duration
	h     simtime.Host
}

func newQuietProbe() *quietProbe {
	return &quietProbe{pkts: map[int]int{}, done: map[int]bool{}}
}

func (p *quietProbe) RunEnd(s obs.RunSummary) { p.sum = s }
func (p *quietProbe) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	p.qi = i
	p.ordered = append(p.ordered, quantumStart{i, start, q, h})
}
func (p *quietProbe) QuantumEnd(rec obs.QuantumRecord) { p.ordered = append(p.ordered, rec) }
func (p *quietProbe) Packet(rec obs.PacketRecord) {
	p.pkts[p.qi]++
	p.ordered = append(p.ordered, rec)
}
func (p *quietProbe) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	if ph == obs.PhaseDone {
		p.done[p.qi] = true
	}
	p.phases = append(p.phases, phaseHook{p.qi, node, ph, g0, g1, h0, h1})
}

// sortPhases orders the NodePhase hooks by (quantum, node, host start,
// phase): a total order on what one run can emit, so equal multisets sort
// to equal slices.
func (p *quietProbe) sortPhases() {
	sort.Slice(p.phases, func(i, j int) bool {
		a, b := p.phases[i], p.phases[j]
		switch {
		case a.qi != b.qi:
			return a.qi < b.qi
		case a.node != b.node:
			return a.node < b.node
		case a.h0 != b.h0:
			return a.h0 < b.h0
		case a.g0 != b.g0:
			return a.g0 < b.g0
		}
		return a.ph < b.ph
	})
}

// quietRun is one fully instrumented run: probe, recorder and profiler
// attached, so the test also covers "none of them disables the pass".
type quietRun struct {
	res   *Result
	probe *quietProbe
	rec   *obs.Recorder
	prof  []byte
	// skipped lists the node-quanta the engine fast-forwarded (or, forced
	// off, would have), in hook order; quiet lists the quanta among them in
	// which every node was, which are the quiet quanta.
	skipped []nodeQuantum
	quiet   []int
}

type nodeQuantum struct{ qi, node int }

// partial is the number of node-quanta skipped inside stepped quanta.
func (r quietRun) partial(nodes int) int { return len(r.skipped) - nodes*len(r.quiet) }

func runQuiet(t *testing.T, c fastCase, allow bool) quietRun {
	t.Helper()
	return runProbed(t, c, allow, false)
}

// runReference drives every quantum of the case through one event queue over
// the whole cluster: onPartition substitutes the whole-cluster tight
// partitioning and onQuiet vetoes every fast-forward. That is the engine's
// reference: no partitioning, no deferral, no skip.
func runReference(t *testing.T, c fastCase) quietRun {
	t.Helper()
	return runProbed(t, c, false, true)
}

func runProbed(t *testing.T, c fastCase, allow, reference bool) quietRun {
	t.Helper()
	r := quietRun{probe: newQuietProbe(), rec: &obs.Recorder{}}
	p := prof.New()
	cfg := c.config()
	cfg.Observer = obs.Multi(r.probe, r.rec, p)
	if reference {
		cfg.onPartition = func(*partitioning) bool { return true }
	}
	perQuantum := map[int]int{}
	cfg.onQuiet = func(qi, node int) bool {
		r.skipped = append(r.skipped, nodeQuantum{qi, node})
		if perQuantum[qi]++; perQuantum[qi] == c.nodes {
			r.quiet = append(r.quiet, qi)
		}
		return allow
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s quiet=%v reference=%v: %v", c.name, allow, reference, err)
	}
	r.res = res
	r.prof = p.Report().JSON()
	r.probe.sortPhases()
	return r
}

// split separates the probe's ordered stream into the quantum hooks, in
// order, and the packet hooks as a sorted multiset of (quantum, record).
func (p *quietProbe) split() (quanta []any, pkts []string) {
	qi := 0
	for _, o := range p.ordered {
		switch rec := o.(type) {
		case quantumStart:
			qi = rec.qi
			quanta = append(quanta, o)
		case obs.PacketRecord:
			pkts = append(pkts, fmt.Sprintf("q%d %+v", qi, rec))
		default:
			quanta = append(quanta, o)
		}
	}
	sort.Strings(pkts)
	return quanta, pkts
}

// requireMatchesReference holds a run to the reference walk of the same case.
// How a quantum is partitioned may reorder the hooks inside it and nothing
// else: the Result, the recorded quanta and packets (the latter in canonical
// order), the canonical encoding, the profiler report bytes and every quantum
// hook must be identical, and the packet and NodePhase hooks equal as
// per-quantum multisets.
func requireMatchesReference(t *testing.T, label string, got, ref quietRun) {
	t.Helper()
	g, w := got.rec, ref.rec
	if !reflect.DeepEqual(got.res, ref.res) || !reflect.DeepEqual(g.Quanta, w.Quanta) ||
		!reflect.DeepEqual(SortPacketsCanonical(g.Packets), SortPacketsCanonical(w.Packets)) {
		t.Errorf("%s: Result or records differ from the reference walk:\ngot  %+v\nwant %+v", label, got.res.Stats, ref.res.Stats)
		for i := range w.Quanta {
			if i < len(g.Quanta) && g.Quanta[i] != w.Quanta[i] {
				t.Errorf("first divergence at quantum %d:\n%+v\n%+v", i, g.Quanta[i], w.Quanta[i])
				break
			}
		}
	}
	if !bytes.Equal(CanonicalResult(got.res, g), CanonicalResult(ref.res, w)) {
		t.Errorf("%s: canonical result differs from the reference walk", label)
	}
	if !bytes.Equal(got.prof, ref.prof) {
		t.Errorf("%s: profiler report bytes differ from the reference walk", label)
	}
	gq, gp := got.probe.split()
	wq, wp := ref.probe.split()
	if !reflect.DeepEqual(gq, wq) {
		t.Errorf("%s: quantum hook stream differs from the reference walk", label)
	}
	if !reflect.DeepEqual(gp, wp) {
		t.Errorf("%s: per-quantum packet multisets differ from the reference walk (%d vs %d hooks)", label, len(gp), len(wp))
	}
	if !reflect.DeepEqual(got.probe.phases, ref.probe.phases) {
		t.Errorf("%s: per-quantum NodePhase multisets differ from the reference walk (%d vs %d hooks)",
			label, len(got.probe.phases), len(ref.probe.phases))
	}
}

// sparseCase is the paper-scale geometry of simbench's graded-mixedwan64 row:
// one tight four-node rack and sixty WAN singletons at Q = 2µs, with a
// handful of nodes acting in a stepped quantum among dozens that cannot.
func sparseCase(count int) fastCase {
	return fastCase{name: "mixed-wan-64", nodes: 64, w: workloads.Uniform(count, 4000, 100*simtime.Microsecond, 29),
		pol: fixed(2 * simtime.Microsecond), net: mixedWANNetAt(64, 2*simtime.Microsecond)}
}

// TestQuietPassDifferential is the fast-forward's bit-identity property: over
// the behaviour matrix, the 64-node sparse case and random fat-tree/fault
// scenarios, inline and pooled, a run that fast-forwards and a run with every
// quiet quantum, skipped node and skipped tight partition forced through its
// walk must agree on the Result, the fingerprint, the profiler report bytes,
// every quantum and packet hook in order, and each quantum's NodePhase
// multiset — and both must match the reference walk, which neither
// partitions nor skips.
func TestQuietPassDifferential(t *testing.T) {
	cases := append(fastCases(), sparseCase(15))
	rnd := rand.New(rand.NewSource(20260928))
	for trial := 0; trial < 8; trial++ {
		c, _ := randomFatTreeCase(rnd, trial)
		cases = append(cases, c)
	}
	whole, partial := 0, 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref := runReference(t, c)
			if s := ref.probe.sum; s.QuietQuanta != 0 || s.QuietNodeQuanta != 0 {
				t.Fatalf("the reference walk fast-forwarded %d quanta and %d node-quanta", s.QuietQuanta, s.QuietNodeQuanta)
			}
			on := runQuiet(t, c, true)
			off := runQuiet(t, c, false)
			requireMatchesReference(t, "fast-forwarding", on, ref)
			if s := off.probe.sum; s.QuietQuanta != 0 || s.QuietNodeQuanta != 0 {
				t.Fatalf("forced off, the engine still fast-forwarded %d quanta and %d node-quanta",
					s.QuietQuanta, s.QuietNodeQuanta)
			}
			if s := on.probe.sum; s.QuietQuanta != len(on.quiet) || s.QuietNodeQuanta != len(on.skipped) {
				t.Errorf("RunSummary reports %d quiet quanta and %d node-quanta, hook saw %d and %d",
					s.QuietQuanta, s.QuietNodeQuanta, len(on.quiet), len(on.skipped))
			}
			// Forcing the walks must not change which node-quanta qualify.
			if !reflect.DeepEqual(on.skipped, off.skipped) {
				t.Errorf("skipped set differs fast-forwarding (%d) and forced off (%d)",
					len(on.skipped), len(off.skipped))
			}
			whole += len(on.quiet)
			partial += on.partial(c.nodes)

			if !reflect.DeepEqual(on.res, off.res) || !reflect.DeepEqual(on.rec, off.rec) {
				t.Errorf("Result or records differ:\nquiet   %+v\nstepped %+v", on.res.Stats, off.res.Stats)
			}
			if !bytes.Equal(CanonicalResult(on.res, on.rec), CanonicalResult(off.res, off.rec)) {
				t.Errorf("canonical result differs")
			}
			if !bytes.Equal(on.prof, off.prof) {
				t.Errorf("profiler report bytes differ")
			}
			if !reflect.DeepEqual(on.probe.ordered, off.probe.ordered) {
				t.Errorf("quantum/packet hook stream differs")
			}
			if !reflect.DeepEqual(on.probe.phases, off.probe.phases) {
				t.Errorf("per-quantum NodePhase multisets differ (%d vs %d hooks)",
					len(on.probe.phases), len(off.probe.phases))
				for i := range on.probe.phases {
					if i < len(off.probe.phases) && on.probe.phases[i] != off.probe.phases[i] {
						t.Errorf("first divergence:\n  quiet   %+v\n  stepped %+v", on.probe.phases[i], off.probe.phases[i])
						break
					}
				}
			}
		})
	}
	if whole == 0 || partial == 0 {
		t.Errorf("fast-forwarded %d quiet quanta and %d node-quanta of stepped quanta: the comparison is vacuous", whole, partial)
	}
}

// TestQuietPassEngages: the pass must engage where it should and stand down
// where it must.
func TestQuietPassEngages(t *testing.T) {
	// One long compute per rank: everything but the first quantum (workload
	// start) and the last (completion) is quiet.
	silent := fastCase{name: "silent", nodes: 4, w: workloads.Silent(300 * simtime.Microsecond), pol: fixed(simtime.Microsecond)}
	r := runQuiet(t, silent, true)
	quanta := r.res.Stats.Quanta
	if len(r.quiet)*100 < 95*quanta {
		t.Errorf("silent: %d of %d quanta quiet, want >= 95%%", len(r.quiet), quanta)
	}
	if r.probe.sum.QuietQuanta != len(r.quiet) {
		t.Errorf("silent: RunSummary.QuietQuanta = %d, hook saw %d",
			r.probe.sum.QuietQuanta, len(r.quiet))
	}

	// Back-to-back computes with known lengths: a quantum (start, limit] is
	// stepped iff an op of some rank completes in it — including exactly at
	// the limit (rank 0's 5µs ops end on quantum boundaries) — or it is the
	// first one, where the workloads start. Every other quantum is quiet.
	const q = simtime.Microsecond
	durs := []simtime.Duration{5 * q, 7300 * simtime.Nanosecond, 11900 * simtime.Nanosecond}
	const ops = 20
	chain := fastCase{name: "compute-chain", nodes: len(durs), pol: fixed(q), w: workloads.Workload{
		Name: "test.compute-chain",
		New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				for i := 0; i < ops; i++ {
					p.Compute(durs[rank])
				}
				return nil
			}
		},
	}}
	r = runQuiet(t, chain, true)
	stepped := map[int]bool{0: true}
	for _, d := range durs {
		for i := 1; i <= ops; i++ {
			end := simtime.Duration(i) * d
			stepped[int((end+q-1)/q)-1] = true
		}
	}
	var want []int
	for qi := 0; qi < r.res.Stats.Quanta; qi++ {
		if !stepped[qi] {
			want = append(want, qi)
		}
	}
	if !reflect.DeepEqual(r.quiet, want) {
		t.Errorf("compute-chain: quiet quanta\n got  %v\n want %v", r.quiet, want)
	}

	// With traffic: no quantum in which a frame was routed (every frame is
	// routed in the quantum it was sent in) or a node finished is quiet, and
	// the pass still covers the compute phases.
	phases := fastCase{name: "phases", nodes: 4, w: workloads.Phases(3, 150*simtime.Microsecond, 16<<10),
		pol: adaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)}
	r = runQuiet(t, phases, true)
	if len(r.quiet) == 0 {
		t.Errorf("phases: no quiet quanta")
	}
	for _, qi := range r.quiet {
		if r.probe.pkts[qi] != 0 || r.rec.Quanta[qi].Packets != 0 {
			t.Errorf("phases: quantum %d routed packets but ran quiet", qi)
		}
		if r.probe.done[qi] {
			t.Errorf("phases: a node finished in quiet quantum %d", qi)
		}
	}
}

// TestSparseQuantaEngage: on the paper-scale geometry the per-node skip must
// carry the stepped quanta — nearly all of their node-quanta fast-forwarded —
// and stand down wherever a node or a tight partition can act.
func TestSparseQuantaEngage(t *testing.T) {
	c := sparseCase(40)
	const rack = 4 // the tight partition is nodes 0..3
	r := runQuiet(t, c, true)
	stepped := r.res.Stats.Quanta - len(r.quiet)
	partial := r.partial(c.nodes)
	if partial*100 < 90*c.nodes*stepped {
		t.Errorf("%d of the %d node-quanta of stepped quanta skipped, want >= 90%%",
			partial, c.nodes*stepped)
	}

	// What the probe saw of each node-quantum (phases are sorted by
	// quantum and node), of each sender, and of each queued arrival.
	phases := map[nodeQuantum][]phaseHook{}
	for _, ph := range r.probe.phases {
		k := nodeQuantum{ph.qi, ph.node}
		phases[k] = append(phases[k], ph)
	}
	sent := map[nodeQuantum]bool{}
	type queued struct {
		at     simtime.Guest
		routed int // the quantum whose barrier queued it
	}
	arrivals := make([][]queued, c.nodes)
	doneIn := make([]int, c.nodes) // the quantum each node finished in
	qi := 0
	for _, o := range r.probe.ordered {
		switch rec := o.(type) {
		case quantumStart:
			qi = rec.qi
		case obs.PacketRecord:
			sent[nodeQuantum{qi, rec.Src}] = true
			if !rec.Dropped {
				arrivals[rec.Dst] = append(arrivals[rec.Dst], queued{rec.Arrival, qi})
			}
		}
	}
	for _, as := range arrivals {
		sort.Slice(as, func(i, j int) bool { return as[i].at < as[j].at })
	}
	for _, ph := range r.probe.phases {
		if ph.ph == obs.PhaseDone {
			doneIn[ph.node] = ph.qi
		}
	}
	rackSkips := map[int]int{}
	for _, k := range r.skipped {
		limit := r.rec.Quanta[k.qi].Start.Add(r.rec.Quanta[k.qi].Q)
		phs := phases[k]
		if len(phs) != 1 || phs[0].ph == obs.PhaseDone || phs[0].g1 != limit {
			t.Fatalf("skipped node %d did not spend quantum %d in one segment to the limit %v: %+v",
				k.node, k.qi, limit, phs)
		}
		if sent[k] {
			t.Fatalf("node %d was skipped in quantum %d, in which it sent", k.node, k.qi)
		}
		// A node blocked in Recv acts at its first queued arrival (a
		// finished one idles whatever its queue holds).
		if phs[0].ph == obs.PhaseIdle && k.qi <= doneIn[k.node] {
			as := arrivals[k.node]
			for j := sort.Search(len(as), func(j int) bool { return as[j].at >= phs[0].g0 }); j < len(as) && as[j].at <= limit; j++ {
				if as[j].routed < k.qi {
					t.Fatalf("node %d was skipped in quantum %d with an arrival queued at %v <= limit %v",
						k.node, k.qi, as[j].at, limit)
				}
			}
		}
		if k.node < rack {
			rackSkips[k.qi]++
		}
	}
	for qi, n := range rackSkips {
		if n != rack {
			t.Errorf("quantum %d skipped %d of the tight partition's %d members", qi, n, rack)
		}
	}
}

// TestNodePhaseTiling is the "guest clocks monotone, busy + idle reconcile"
// law as a test: in every run — fast-forwarding or not, and on the reference
// walk — each node's busy and idle records tile guest time from
// 0 to the run's final limit without a gap or an overlap, never overlap in
// host time, and their host extents sum to Stats.HostBusy + Stats.HostIdle.
// The quiet pass reports a node's quantum from the engine's lanes while the
// node's own clock lags (DESIGN.md §7.1); a path that read a lagging clock
// would open a gap or re-report a stretch here. The stepped run vetoes every
// fast-forward under the case's own partitioning, which is what sends a
// finished workload's loose node through beginNode's idle-to-the-limit branch
// quantum after quantum (pingpong-4: ranks 2 and 3 finish at guest time 0, all
// loose at Q = 1µs).
func TestNodePhaseTiling(t *testing.T) {
	cases := append(fastCases(), sparseCase(15))
	rnd := rand.New(rand.NewSource(20260929))
	for trial := 0; trial < 6; trial++ {
		c, _ := randomFatTreeCase(rnd, trial)
		cases = append(cases, c)
	}
	lagged := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := map[string]quietRun{
				"reference":   runReference(t, c),
				"partitioned": runQuiet(t, c, true),
				"stepped":     runQuiet(t, c, false),
			}
			for label, r := range runs {
				last := r.rec.Quanta[len(r.rec.Quanta)-1]
				final := last.Start.Add(last.Q)
				// The probe's phases are sorted by (quantum, node, host start):
				// picking one node's out keeps them in stream order.
				g := make([]simtime.Guest, c.nodes)
				h := make([]simtime.Host, c.nodes)
				var extent simtime.Duration
				for _, ph := range r.probe.phases {
					if ph.ph == obs.PhaseDone {
						continue
					}
					if ph.g0 != g[ph.node] || ph.g1 < ph.g0 {
						t.Fatalf("%s: node %d quantum %d: %v record covers guest %v-%v, the previous one ended at %v",
							label, ph.node, ph.qi, ph.ph, ph.g0, ph.g1, g[ph.node])
					}
					if ph.h0 < h[ph.node] || ph.h1 < ph.h0 {
						t.Fatalf("%s: node %d quantum %d: %v record covers host %v-%v, the previous one ended at %v",
							label, ph.node, ph.qi, ph.ph, ph.h0, ph.h1, h[ph.node])
					}
					g[ph.node], h[ph.node] = ph.g1, ph.h1
					extent += ph.h1.Sub(ph.h0)
				}
				for i, at := range g {
					if at != final {
						t.Errorf("%s: node %d's records end at guest %v, the run at %v", label, i, at, final)
					}
				}
				if st := r.res.Stats; extent != st.HostBusy+st.HostIdle {
					t.Errorf("%s: busy and idle records cover %v of host time, Stats.HostBusy + HostIdle = %v",
						label, extent, st.HostBusy+st.HostIdle)
				}
				lagged += r.probe.sum.QuietNodeQuanta
			}
		})
	}
	if lagged == 0 {
		t.Error("no node-quantum was fast-forwarded: the lagging-clock half of the test is vacuous")
	}
}
