package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// streamProbe keeps every hook of a run: order names each, in stream order,
// by its kind and its index in the slice of its kind. Every view of a stream
// derives from the probe, and replay feeds it to any other sink.
type streamProbe struct {
	order  []hookRef
	info   obs.RunInfo
	sum    obs.RunSummary
	starts []quantumStart
	parts  []*obs.Partitioning // the engine's own, which it never changes
	ends   []obs.QuantumRecord
	pkts   []taggedPacket
	phases []phaseHook // in stream order; see sortedPhases
}

type hookKind uint8

const (
	hookRunStart hookKind = iota
	hookStart
	hookPartition
	hookPacket
	hookPhase
	hookEnd
	hookRunEnd
)

type hookRef struct {
	kind hookKind
	i    int32
}

type taggedPacket struct {
	qi  int
	rec obs.PacketRecord
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

type nodeQuantum struct{ qi, node int }

func (p *streamProbe) add(k hookKind, n int) { p.order = append(p.order, hookRef{k, int32(n)}) }

func (p *streamProbe) RunStart(i obs.RunInfo)  { p.info = i; p.add(hookRunStart, 0) }
func (p *streamProbe) RunEnd(s obs.RunSummary) { p.sum = s; p.add(hookRunEnd, 0) }
func (p *streamProbe) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	p.add(hookStart, len(p.starts))
	p.starts = append(p.starts, quantumStart{i, start, q, h})
}
func (p *streamProbe) QuantumPartition(_ int, part *obs.Partitioning) {
	p.add(hookPartition, len(p.parts))
	p.parts = append(p.parts, part)
}
func (p *streamProbe) QuantumEnd(rec obs.QuantumRecord) {
	p.add(hookEnd, len(p.ends))
	p.ends = append(p.ends, rec)
}
func (p *streamProbe) Packet(rec obs.PacketRecord) {
	p.add(hookPacket, len(p.pkts))
	p.pkts = append(p.pkts, taggedPacket{len(p.starts) - 1, rec})
}
func (p *streamProbe) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	p.add(hookPhase, len(p.phases))
	p.phases = append(p.phases, phaseHook{len(p.starts) - 1, node, ph, g0, g1, h0, h1})
}

// replay feeds the probe's stream to o, hook for hook.
func (p *streamProbe) replay(o obs.Observer) {
	qi := 0
	for _, h := range p.order {
		switch h.kind {
		case hookRunStart:
			o.RunStart(p.info)
		case hookStart:
			s := p.starts[h.i]
			qi = s.qi
			o.QuantumStart(s.qi, s.start, s.q, s.h)
		case hookPartition:
			o.QuantumPartition(qi, p.parts[h.i])
		case hookEnd:
			o.QuantumEnd(p.ends[h.i])
		case hookPacket:
			o.Packet(p.pkts[h.i].rec)
		case hookPhase:
			ph := p.phases[h.i]
			o.NodePhase(ph.node, ph.ph, ph.g0, ph.g1, ph.h0, ph.h1)
		case hookRunEnd:
			o.RunEnd(p.sum)
		}
	}
}

// quantumHooks is the stream's order of quantum-level hooks.
func (p *streamProbe) quantumHooks() []hookRef {
	return slices.DeleteFunc(slices.Clone(p.order), func(h hookRef) bool { return h.kind == hookPacket || h.kind == hookPhase })
}

// sortedPhases is the NodePhase hooks per (quantum, node), in stream order
// inside each.
func (p *streamProbe) sortedPhases() []phaseHook {
	phases := slices.Clone(p.phases)
	slices.SortStableFunc(phases, func(a, b phaseHook) int {
		return cmp.Or(cmp.Compare(a.qi, b.qi), cmp.Compare(a.node, b.node))
	})
	return phases
}

// packetSet is the packet hooks as a sorted multiset of (quantum, record).
func (p *streamProbe) packetSet() []taggedPacket {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return slices.SortedFunc(slices.Values(p.pkts), func(a, b taggedPacket) int {
		x, y := a.rec, b.rec
		return cmp.Or(cmp.Compare(a.qi, b.qi), cmp.Compare(x.SendGuest, y.SendGuest), cmp.Compare(x.Src, y.Src),
			cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Ideal, y.Ideal), cmp.Compare(x.Arrival, y.Arrival),
			cmp.Compare(x.Latency, y.Latency), cmp.Compare(x.Size, y.Size), cmp.Compare(b2i(x.Dropped), b2i(y.Dropped)),
			cmp.Compare(b2i(x.Duplicate), b2i(y.Duplicate)), cmp.Compare(b2i(x.Straggler), b2i(y.Straggler)),
			cmp.Compare(b2i(x.Snapped), b2i(y.Snapped)))
	})
}

// observed is one run with the probe, an obs.Recorder and a profiler attached.
// For Run, skipped lists the node-quanta the quiet pass fast-forwarded, quiet
// the quanta every node sat out, and stretches each of node 0's skips' k.
type observed struct {
	*streamProbe
	cfg       Config
	res       *Result
	err       error
	rec       *obs.Recorder
	rep       *prof.Report
	prof      []byte
	skipped   []nodeQuantum
	quiet     []int
	stretches []int
}

func observe(run func(Config) (*Result, error), cfg Config) observed {
	p := prof.New()
	o := observed{streamProbe: &streamProbe{}, cfg: cfg, rec: &obs.Recorder{}}
	cfg.Observer = obs.Multi(o.streamProbe, o.rec, p)
	perQuantum := map[int]int{}
	cfg.onSkip = func(qi, node, k int) {
		for j := qi; j < qi+k; j++ {
			o.skipped = append(o.skipped, nodeQuantum{j, node})
			if perQuantum[j]++; perQuantum[j] == cfg.Nodes {
				o.quiet = append(o.quiet, j)
			}
		}
		if node == 0 {
			o.stretches = append(o.stretches, k)
		}
	}
	o.res, o.err = run(cfg)
	o.rep = p.Report()
	o.prof = o.rep.JSON()
	return o
}

// verdict collects one check's findings: a row's checks run once, and every
// test that reads them reports them.
type verdict []string

func (v *verdict) Errorf(format string, args ...any) { *v = append(*v, fmt.Sprintf(format, args...)) }

// report fails t with the verdicts' findings.
func report(t *testing.T, vs ...verdict) {
	t.Helper()
	for _, v := range vs {
		for _, m := range v {
			t.Error(m)
		}
	}
}

// sameRun holds Run to the reference. How a quantum is executed may reorder
// the hooks inside it and nothing else: the error, the Result, the canonical
// encoding, the profiler report bytes and every quantum hook are identical,
// and the packet and NodePhase hooks equal as per-quantum multisets.
func sameRun(v *verdict, got, ref observed, gotPhases, refPhases []phaseHook) {
	if g, w := fmt.Sprint(got.err), fmt.Sprint(ref.err); g != w {
		v.Errorf("Run ended with %q, the reference with %q", g, w)
		return
	}
	if !reflect.DeepEqual(got.res, ref.res) {
		v.Errorf("Result differs from the reference:\nRun       %+v\nreference %+v", got.res, ref.res)
	}
	if got.res != nil && !bytes.Equal(CanonicalResult(got.res, got.rec), CanonicalResult(ref.res, ref.rec)) {
		v.Errorf("canonical result differs from the reference")
	}
	if !bytes.Equal(got.prof, ref.prof) {
		v.Errorf("profiler report bytes differ from the reference")
	}
	var lastA, lastB *obs.Partitioning // each engine hands out one partitioning per quantum size
	samePart := func(a, b *obs.Partitioning) bool {
		eq := a == lastA && b == lastB || reflect.DeepEqual(a, b)
		lastA, lastB = a, b
		return eq
	}
	for _, d := range []string{firstDiff(got.quantumHooks(), ref.quantumHooks()), firstDiff(got.starts, ref.starts),
		firstDiff(got.ends, ref.ends), firstDiffFunc(got.parts, ref.parts, samePart)} {
		if d != "" {
			v.Errorf("quantum hooks differ from the reference: %s", d)
		}
	}
	if d := firstDiff(got.packetSet(), ref.packetSet()); d != "" {
		v.Errorf("per-quantum packet multisets differ from the reference: %s", d)
	}
	if d := firstDiff(gotPhases, refPhases); d != "" {
		v.Errorf("per-quantum NodePhase multisets differ from the reference: %s", d)
	}
}

// firstDiff describes where Run's hooks first depart from the reference's,
// or returns "" when the two are equal.
func firstDiff[T comparable](got, want []T) string {
	return firstDiffFunc(got, want, func(a, b T) bool { return a == b })
}

func firstDiffFunc[T any](got, want []T, eq func(a, b T) bool) string {
	i := 0
	for i < len(got) && i < len(want) && eq(got[i], want[i]) {
		i++
	}
	if i == len(got) && i == len(want) {
		return ""
	}
	return fmt.Sprintf("%d vs %d hooks, first at %d:\nRun       %+v\nreference %+v",
		len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}

// checkContracts holds one completed run to the laws DESIGN.md §2.6 states:
// checkRecords', and each node's busy and idle records tile its guest time
// from 0 to the last barrier, ascending in host time, their host extents
// summing to HostBusy + HostIdle.
func checkContracts(v *verdict, label string, o observed, phases []phaseHook) {
	next, ok := checkRecords(v, label, o.cfg, o.info.Lookahead, o.res, o.rec, true)
	if !ok {
		return
	}
	s := o.res.Stats
	g := make([]simtime.Guest, len(o.res.NodeFinish))
	h := make([]simtime.Host, len(o.res.NodeFinish))
	var extent simtime.Duration
	for _, ph := range phases {
		if ph.ph == obs.PhaseDone {
			continue
		}
		if ph.g0 != g[ph.node] || ph.g1 < ph.g0 || ph.h0 < h[ph.node] || ph.h1 < ph.h0 {
			v.Errorf("%s: node %d quantum %d: %v record covers guest %v-%v, host %v-%v; the previous one ended at %v, %v",
				label, ph.node, ph.qi, ph.ph, ph.g0, ph.g1, ph.h0, ph.h1, g[ph.node], h[ph.node])
			return
		}
		g[ph.node], h[ph.node] = ph.g1, ph.h1
		extent += ph.h1.Sub(ph.h0)
	}
	for i, at := range g {
		if at != next {
			v.Errorf("%s: node %d's records end at guest %v, the run at %v", label, i, at, next)
		}
	}
	if extent != s.HostBusy+s.HostIdle {
		v.Errorf("%s: busy and idle records cover %v of host time, HostBusy + HostIdle = %v", label, extent, s.HostBusy+s.HostIdle)
	}
}

// checkRecords holds a completed run's records to the laws that do not
// depend on how its nodes were scheduled:
//   - conservation: Deliveries = Packets - Dropped + Duplicated - unroutable
//     = Exact + Stragglers, each count, and the stragglers' delay, as the
//     packet records tell it;
//   - SendGuest <= Ideal <= Arrival, with Arrival == Ideal for an exact
//     delivery;
//   - the quantum records tile guest time from zero and follow each other in
//     host time — with tiled, each starts where the last ended —, each Q lies
//     in [MinQ, MaxQ], and a quantum with Q <= T delivers no straggler;
//   - Algorithm 1, under an adaptive policy: Q0 = Min, every Q in [Min, Max],
//     and Q grows or holds after a silent quantum, shrinks or holds after
//     one with traffic.
//
// It returns the guest time the last quantum ended at.
func checkRecords(v *verdict, label string, cfg Config, T simtime.Duration, res *Result, rec *obs.Recorder, tiled bool) (next simtime.Guest, ok bool) {
	s := res.Stats
	delivered, dropped, dups, late := 0, 0, 0, 0
	var delay simtime.Duration
	for i, p := range rec.Packets {
		if p.SendGuest > p.Ideal || !p.Dropped && (p.Arrival < p.Ideal || !p.Straggler && p.Arrival != p.Ideal) {
			v.Errorf("%s: packet %d breaks SendGuest <= Ideal <= Arrival, exact at Ideal: %+v", label, i, p)
			return next, false
		}
		if p.Dropped {
			dropped++
			continue
		}
		delivered++
		if p.Duplicate {
			dups++
		}
		if p.Straggler {
			late, delay = late+1, delay+p.Arrival.Sub(p.Ideal)
		}
	}
	unroutable := s.Packets - (delivered - dups) - dropped
	if s.Deliveries != delivered || s.Dropped != dropped || s.Duplicated != dups || unroutable < 0 ||
		s.Deliveries != s.Packets-s.Dropped+s.Duplicated-unroutable || s.Exact+s.Stragglers != s.Deliveries ||
		s.Stragglers != late || s.StragglerDelay != delay {
		v.Errorf("%s: Stats %+v break conservation; the records show %d delivered, %d dropped, %d duplicates, %d late by %v",
			label, s, delivered, dropped, dups, late, delay)
	}
	packets, stragglers := 0, 0
	var release simtime.Host
	a, alg1 := cfg.Policy().(*quantum.Adaptive)
	for i, q := range rec.Quanta {
		if q.Index != i || q.Start != next || q.HostStart < release || tiled && q.HostStart != release || q.HostEnd < q.HostStart {
			v.Errorf("%s: quantum record %d does not start where record %d ended: %+v", label, i, i-1, q)
			return next, false
		}
		next, release = q.Start.Add(q.Q), q.HostEnd
		packets += q.Packets
		stragglers += q.Stragglers
		if q.Q < s.MinQ || q.Q > s.MaxQ {
			v.Errorf("%s: quantum %d has Q = %v outside [%v, %v]", label, q.Index, q.Q, s.MinQ, s.MaxQ)
			return next, false
		}
		if q.Q <= T && q.Stragglers != 0 {
			v.Errorf("%s: quantum %d has Q = %v <= T = %v and %d stragglers", label, q.Index, q.Q, T, q.Stragglers)
			return next, false
		}
		if p := rec.Quanta[max(i-1, 0)]; alg1 && (q.Q < a.Min || q.Q > a.Max || i == 0 && q.Q != a.Min ||
			p.Packets == 0 && q.Q < p.Q || p.Packets > 0 && q.Q > p.Q) {
			v.Errorf("%s: Algorithm 1 in [%v, %v]: quantum %d has Q = %v after %v with %d packets", label, a.Min, a.Max, i, q.Q, p.Q, p.Packets)
			return next, false
		}
	}
	if len(rec.Quanta) != s.Quanta || packets != s.Packets || stragglers != s.Stragglers {
		v.Errorf("%s: %d quantum records carry %d packets and %d stragglers, Stats %d, %d and %d",
			label, len(rec.Quanta), packets, stragglers, s.Quanta, s.Packets, s.Stragglers)
	}
	return next, true
}

// checkRecorded: obs.Recorder keeps exactly the stream's Packet and
// QuantumEnd hooks, in stream order, one QuantumEnd per quantum.
func checkRecorded(v *verdict, label string, o observed) {
	var pkts []obs.PacketRecord
	for _, tp := range o.pkts {
		pkts = append(pkts, tp.rec)
	}
	if !slices.Equal(o.rec.Packets, pkts) || !slices.Equal(o.rec.Quanta, o.ends) {
		v.Errorf("%s: obs.Recorder holds %d packets and %d quanta, not the stream's %d and %d",
			label, len(o.rec.Packets), len(o.rec.Quanta), len(pkts), len(o.ends))
	}
	if o.res != nil && len(o.ends) != o.res.Stats.Quanta {
		v.Errorf("%s: the stream carried %d QuantumEnd hooks, Stats.Quanta = %d", label, len(o.ends), o.res.Stats.Quanta)
	}
}

// guestView is what a run shows its guests: finish times, metrics, Stats
// without its host-time fields, and the canonical packet list. At Q <= T it
// depends on neither the host model nor the runner.
type guestView struct {
	NodeFinish []simtime.Guest
	Metrics    []map[string]float64
	Stats      Stats
	Packets    []obs.PacketRecord
}

func guestOf(res *Result, pkts []obs.PacketRecord) guestView {
	s := res.Stats
	s.HostBusy, s.HostIdle, s.HostBarrier = 0, 0, 0
	return guestView{res.NodeFinish, res.Metrics, s, SortPacketsCanonical(pkts)}
}

// diff describes how the view departs from want's, or returns "".
func (g guestView) diff(want guestView) string {
	if g.Stats == want.Stats && slices.Equal(g.Packets, want.Packets) &&
		reflect.DeepEqual(g.NodeFinish, want.NodeFinish) && reflect.DeepEqual(g.Metrics, want.Metrics) {
		return ""
	}
	return fmt.Sprintf("finish times %v, metrics %v, guest Stats %+v and %d packets; want %v, %v, %+v and %d",
		g.NodeFinish, g.Metrics, g.Stats, len(g.Packets), want.NodeFinish, want.Metrics, want.Stats, len(want.Packets))
}

// diffRun is a row run observed on Run and on the reference, and unobserved
// on Run, with its verdicts: Run against the reference, observed against
// unobserved, the contracts on both engines, the recorders against the
// stream, the summary against the skip probe, the row's expected shape. Of
// the reference it keeps the report its stream replays into a profiler.
type diffRun struct {
	got       observed
	refReplay []byte

	same, bareSame, contracts, recorded, summary, shape verdict

	profiled []byte // see profiledReport
}

func newDiffRun(r diffRow) *diffRun {
	// The three runs share nothing, so they run side by side.
	refc, barec := make(chan observed), make(chan observed)
	go func() { refc <- observe(simulateReference, r.cfg) }()
	go func() { var b observed; b.res, b.err = Run(r.cfg); barec <- b }()
	got := observe(Run, r.cfg)
	ref, bare := <-refc, <-barec
	d := &diffRun{got: got}
	refPhases, gotPhases := ref.sortedPhases(), got.sortedPhases()
	sameRun(&d.same, got, ref, gotPhases, refPhases)
	if fmt.Sprint(bare.err) != fmt.Sprint(got.err) || !reflect.DeepEqual(bare.res, got.res) {
		d.bareSame.Errorf("observing changed the run: %v %+v, unobserved %v %+v", got.err, got.res, bare.err, bare.res)
	}
	if ref.err == nil && got.err == nil {
		checkContracts(&d.contracts, "reference", ref, refPhases)
		checkContracts(&d.contracts, "Run", got, gotPhases)
	}
	checkRecorded(&d.recorded, "Run", got)
	checkRecorded(&d.recorded, "reference", ref)
	if s := got.sum; s.QuietQuanta != len(got.quiet) || s.QuietNodeQuanta != len(got.skipped) {
		d.summary.Errorf("RunSummary reports %d quiet quanta and %d node-quanta, the skip probe saw %d and %d",
			s.QuietQuanta, s.QuietNodeQuanta, len(got.quiet), len(got.skipped))
	}
	if r.aborts != errors.Is(got.err, ErrGuestLimit) {
		d.shape.Errorf("run ended with %v, want a guest-limit abort: %v", got.err, r.aborts)
	}
	collapsed := slices.ContainsFunc(got.stretches, func(k int) bool { return k > 1 })
	if r.collapses && !collapsed || r.never && collapsed {
		d.shape.Errorf("stretches of %v quanta; want one longer than a quantum: %v, want none: %v", got.stretches, r.collapses, r.never)
	}
	p := prof.New()
	ref.replay(p)
	d.refReplay = p.Report().JSON()
	if len(got.order) > keptHooks {
		d.got.streamProbe = nil
	}
	return d
}

// keptHooks bounds the streams the memo keeps: a longer one is dropped once
// the verdicts are in, and stream runs the row again for a view that reads it.
const keptHooks = 60_000

// stream is the row's observed run with its stream.
func (d *diffRun) stream() observed {
	if d.got.streamProbe == nil {
		d.got = observe(Run, d.got.cfg)
	}
	return d.got
}

// complete fails t unless Run completed the row, and returns Run's result.
func (d *diffRun) complete(t *testing.T) *Result {
	t.Helper()
	if d.got.err != nil {
		t.Fatal(d.got.err)
	}
	return d.got.res
}

// profiledReport is the report of a run with the unread Workers stub at 2 and
// a profiler attached as Config.Profiler alone, which must be the probed
// run's bytes.
func (d *diffRun) profiledReport(t *testing.T) []byte {
	t.Helper()
	if d.profiled == nil {
		cfg, p := d.got.cfg, prof.New()
		cfg.Workers, cfg.Profiler = 2, p
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		d.profiled = p.Report().JSON()
	}
	return d.profiled
}

// view runs a subtest per row that reports the verdicts pick reads, and
// returns how many quiet quanta and node-quanta of stepped quanta the rows'
// quiet passes fast-forwarded.
func view(t *testing.T, rows []diffRow, pick func(d *diffRun) []verdict) (whole, partial int) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			report(t, pick(d)...)
			whole += len(d.got.quiet)
			partial += len(d.got.skipped) - r.cfg.Nodes*len(d.got.quiet)
		})
	}
	return whole, partial
}

func (d *diffRun) all() []verdict {
	return []verdict{d.same, d.bareSame, d.contracts, d.recorded, d.summary, d.shape}
}

// TestDifferential holds Run to the reference engine (reference_test.go) and
// the contracts over the whole table (cases_test.go).
func TestDifferential(t *testing.T) {
	if whole, partial := view(t, allRows(), (*diffRun).all); whole == 0 || partial == 0 {
		t.Errorf("fast-forwarded %d quiet quanta and %d node-quanta of stepped quanta: the comparison is vacuous", whole, partial)
	}
}

// TestFastPathMatchesClassicSemantics: on the behaviour matrix, Run —
// partitioned, fast-forwarded, its quiet stretches collapsed — reproduces
// every number of the reference, which steps every node through every
// quantum on one event list.
func TestFastPathMatchesClassicSemantics(t *testing.T) {
	view(t, matrixRows(), func(d *diffRun) []verdict { return []verdict{d.same, d.bareSame} })
}

// TestQuietPassDifferential: over the behaviour matrix and random
// scenarios, the run the quiet pass fast-forwards matches the reference,
// which fast-forwards nothing, and its summary counts what the pass skipped —
// whole quanta on some rows, single nodes of stepped quanta on others.
func TestQuietPassDifferential(t *testing.T) {
	rows := slices.Concat(matrixRows(), trialRows(20260928, 8))
	if whole, partial := view(t, rows, func(d *diffRun) []verdict { return []verdict{d.same, d.summary} }); whole == 0 || partial == 0 {
		t.Errorf("fast-forwarded %d quiet quanta and %d node-quanta of stepped quanta: the comparison is vacuous", whole, partial)
	}
}

// TestQuietStretchDifferential: quiet stretches collapse where the row
// expects it and nowhere else, a guest limit inside a stretch aborts as it
// does on the reference, and collapsing changes nothing the reference can
// tell apart.
func TestQuietStretchDifferential(t *testing.T) {
	view(t, slices.Concat(matrixRows(), stretchRows()), func(d *diffRun) []verdict { return []verdict{d.same, d.shape} })
}

// TestRecorderStream: on Run and on the reference, an obs.Recorder keeps
// exactly the stream's Packet and QuantumEnd hooks in stream order, and the
// canonical encoding of the recorded run does not depend on the engine.
func TestRecorderStream(t *testing.T) {
	view(t, caseRows(), func(d *diffRun) []verdict { return []verdict{d.recorded, d.same} })
}

// TestNodePhaseTiling: on both engines each node's busy and idle records
// tile its guest time and reconcile with HostBusy + HostIdle. The quiet pass
// reports a node's quantum while its clock lags (DESIGN.md §2.3), so some
// node-quanta must be skipped for the check to bite.
func TestNodePhaseTiling(t *testing.T) {
	if whole, partial := view(t, slices.Concat(matrixRows(), trialRows(20260929, 6)), func(d *diffRun) []verdict {
		return []verdict{d.contracts}
	}); whole+partial == 0 {
		t.Error("no node-quantum was fast-forwarded: the lagging-clock half of the test is vacuous")
	}
}

// FuzzDifferential is TestDifferential over random scenarios: topology,
// quantum and fault plan drawn by randomFatTreeRow from the seed, and the
// row's fixed policy or an adaptive one.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{20260807, 20260928, 20260929, 20261002} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, adaptivePolicy bool) {
		r := randomFatTreeRow(rand.New(rand.NewSource(seed)), 0)
		if adaptivePolicy {
			r.cfg.Policy = adaptive(simtime.Microsecond, 200*simtime.Microsecond, 1.1, 0.02)
		}
		report(t, newDiffRun(r).all()...)
	})
}

// TestStreamOrderContract holds the observer stream to the order DESIGN.md §2.5
// ("Stream order") promises inside one quantum, read off the partitioning the
// stream itself carries: the tight partitions in partition-id order, each in
// host-event order — a busy segment and a finish are reported when they
// start, an idle segment when it ends — or, fast-forwarded, one record per
// member in member order; then the loose nodes in node order, each node's
// records contiguous and ascending in host time; then the frames routed at
// the barrier, everything not sent inside one tight partition, in canonical
// (source node, send-sequence) order. A quantum the quiet pass executes whole
// is one record per node, in node order. The differentials compare NodePhase
// hooks as per-quantum multisets; this is the test that sees a reordering.
func TestStreamOrderContract(t *testing.T) {
	var tightEvents, looseRecs, barrierPkts, skippedTight int
	for _, r := range slices.Concat(matrixRows(), trialRows(20261002, 8)) {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			d.complete(t)
			skipped := map[nodeQuantum]bool{}
			for _, k := range d.got.skipped {
				skipped[k] = true
			}
			p := d.stream().streamProbe
			quanta := make([][]any, len(p.starts)) // each quantum's phaseHook and obs.PacketRecord records
			for _, h := range p.order {
				if h.kind == hookPhase {
					quanta[p.phases[h.i].qi] = append(quanta[p.phases[h.i].qi], p.phases[h.i])
				} else if h.kind == hookPacket {
					quanta[p.pkts[h.i].qi] = append(quanta[p.pkts[h.i].qi], p.pkts[h.i].rec)
				}
			}
			if len(p.parts) != len(quanta) {
				t.Fatalf("%d partitionings for %d quanta", len(p.parts), len(quanta))
			}
			for qi, recs := range quanta {
				part := p.parts[qi].Part // node -> partition id
				size := map[int32]int{}
				quiet := true
				for node, id := range part {
					size[id]++
					quiet = quiet && skipped[nodeQuantum{qi, node}]
				}
				tight := func(node int) bool { return size[part[node]] > 1 }
				// stage orders the quantum's three parts and, inside the first
				// two, the partitions and the loose nodes; a quiet quantum is
				// node order throughout.
				stage := func(rec any) [2]int {
					switch r := rec.(type) {
					case phaseHook:
						switch {
						case quiet:
							return [2]int{0, r.node}
						case tight(r.node):
							return [2]int{0, int(part[r.node])}
						}
						return [2]int{1, r.node}
					case obs.PacketRecord:
						if tight(r.Src) && part[r.Src] == part[r.Dst] {
							return [2]int{0, int(part[r.Src])}
						}
						return [2]int{2, r.Src}
					}
					panic("unreachable")
				}
				var prev [2]int
				var at simtime.Host // host-event time within a partition / end of a loose node's last record
				var sent simtime.Guest
				lastMember := -1 // last fast-forwarded member of the current stage
				seen := map[int]bool{}
				for k, rec := range recs {
					st := stage(rec)
					if st[0] < prev[0] || st[0] == prev[0] && st[1] < prev[1] {
						t.Fatalf("quantum %d record %d %+v (stage %v) follows stage %v", qi, k, rec, st, prev)
					}
					if st != prev {
						at, sent, lastMember = 0, 0, -1
					}
					prev = st
					switch r := rec.(type) {
					case phaseHook:
						switch {
						case skipped[nodeQuantum{qi, r.node}]:
							if r.node <= lastMember || seen[r.node] || r.ph == obs.PhaseDone {
								t.Fatalf("quantum %d: fast-forwarded node %d reports %+v after node %d", qi, r.node, r, lastMember)
							}
							lastMember, seen[r.node] = r.node, true
							if tight(r.node) {
								skippedTight++
							}
						case st[0] == 0:
							ev := r.h0
							if r.ph == obs.PhaseIdle {
								ev = r.h1
							}
							if ev < at {
								t.Fatalf("quantum %d partition %d: %+v is reported at host %v, after an event at %v", qi, st[1], r, ev, at)
							}
							at = ev
							tightEvents++
						default:
							if r.h0 < at || r.h1 < r.h0 {
								t.Fatalf("quantum %d loose node %d: %+v starts before %v, where its previous record ended", qi, r.node, r, at)
							}
							at = r.h1
							looseRecs++
						}
					case obs.PacketRecord:
						if st[0] != 2 {
							continue
						}
						if r.SendGuest < sent {
							t.Fatalf("quantum %d: barrier-routed %+v was sent before its predecessor (%v)", qi, r, sent)
						}
						sent = r.SendGuest
						barrierPkts++
					}
				}
			}
		})
	}
	if tightEvents == 0 || looseRecs == 0 || barrierPkts == 0 || skippedTight == 0 {
		t.Errorf("vacuous: %d tight-partition events, %d loose records, %d barrier-routed packets, %d fast-forwarded tight node-quanta",
			tightEvents, looseRecs, barrierPkts, skippedTight)
	}
}
