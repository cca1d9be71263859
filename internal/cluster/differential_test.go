package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// streamProbe records a run's stream for the differential: every quantum hook
// in stream order, the packet and NodePhase hooks tagged with their quantum,
// the lookahead and the summary.
type streamProbe struct {
	qi        int
	lookahead simtime.Duration
	quanta    []any // quantumStart, obs.Partitioning, obs.QuantumRecord
	pkts      []taggedPacket
	phases    []phaseHook
	sum       obs.RunSummary
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

func (p *streamProbe) RunStart(i obs.RunInfo)  { p.lookahead = i.Lookahead }
func (p *streamProbe) RunEnd(s obs.RunSummary) { p.sum = s }
func (p *streamProbe) QuantumStart(i int, start simtime.Guest, q simtime.Duration, h simtime.Host) {
	p.qi = i
	p.quanta = append(p.quanta, quantumStart{i, start, q, h})
}
func (p *streamProbe) QuantumPartition(_ int, part *obs.Partitioning) {
	p.quanta = append(p.quanta, *part)
}
func (p *streamProbe) QuantumEnd(rec obs.QuantumRecord) { p.quanta = append(p.quanta, rec) }
func (p *streamProbe) Packet(rec obs.PacketRecord) {
	p.pkts = append(p.pkts, taggedPacket{p.qi, rec})
}
func (p *streamProbe) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	p.phases = append(p.phases, phaseHook{p.qi, node, ph, g0, g1, h0, h1})
}

// packetSet is the packet hooks as a sorted multiset of (quantum, record).
func (p *streamProbe) packetSet() []string {
	var set []string
	for _, tp := range p.pkts {
		set = append(set, fmt.Sprintf("q%d %+v", tp.qi, tp.rec))
	}
	sort.Strings(set)
	return set
}

// observed is one run of a configuration with the probe, an obs.Recorder and
// a profiler attached. For Run, the onSkip probe lists the node-quanta the
// quiet pass fast-forwarded; quiet holds the quanta every node sat out, which
// are the quiet quanta, and stretches the length k of each of node 0's skips.
type observed struct {
	res       *Result
	err       error
	probe     *streamProbe
	rec       *obs.Recorder
	prof      []byte
	skipped   []nodeQuantum
	quiet     []int
	stretches []int
}

func observe(run func(Config) (*Result, error), cfg Config) observed {
	o := observed{probe: &streamProbe{}, rec: &obs.Recorder{}}
	p := prof.New()
	cfg.Observer = obs.Multi(o.probe, o.rec, p)
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
	o.prof = p.Report().JSON()
	// Per quantum and node; each node's records stay in stream order.
	slices.SortStableFunc(o.probe.phases, func(a, b phaseHook) int {
		return cmp.Or(cmp.Compare(a.qi, b.qi), cmp.Compare(a.node, b.node))
	})
	return o
}

// runObserved is observe(Run, c.config()) for a case that must complete.
func runObserved(t *testing.T, c fastCase) observed {
	t.Helper()
	o := observe(Run, c.config())
	if o.err != nil {
		t.Fatalf("%s: %v", c.name, o.err)
	}
	return o
}

// requireSameRun holds Run to the reference on one configuration. How a
// quantum is executed may reorder the hooks inside it and nothing else: the
// error, the Result, the canonical encoding of the recorded run, the profiler
// report bytes and every quantum hook must be identical, and the packet and
// NodePhase hooks equal as per-quantum multisets.
func requireSameRun(t *testing.T, got, ref observed) {
	t.Helper()
	if g, w := fmt.Sprint(got.err), fmt.Sprint(ref.err); g != w {
		t.Fatalf("Run ended with %q, the reference with %q", g, w)
	}
	if !reflect.DeepEqual(got.res, ref.res) {
		t.Errorf("Result differs from the reference:\nRun       %+v\nreference %+v", got.res, ref.res)
	}
	if got.res != nil && !bytes.Equal(CanonicalResult(got.res, got.rec), CanonicalResult(ref.res, ref.rec)) {
		t.Errorf("canonical result differs from the reference")
	}
	if !bytes.Equal(got.prof, ref.prof) {
		t.Errorf("profiler report bytes differ from the reference")
	}
	if d := firstDiff(got.probe.quanta, ref.probe.quanta); d != "" {
		t.Errorf("quantum hooks differ from the reference: %s", d)
	}
	if d := firstDiff(got.probe.packetSet(), ref.probe.packetSet()); d != "" {
		t.Errorf("per-quantum packet multisets differ from the reference: %s", d)
	}
	if d := firstDiff(got.probe.phases, ref.probe.phases); d != "" {
		t.Errorf("per-quantum NodePhase multisets differ from the reference: %s", d)
	}
}

// firstDiff describes where Run's hooks first depart from the reference's,
// or returns "" when the two are equal.
func firstDiff[T any](got, want []T) string {
	i := 0
	for i < len(got) && i < len(want) && reflect.DeepEqual(got[i], want[i]) {
		i++
	}
	if i == len(got) && i == len(want) {
		return ""
	}
	return fmt.Sprintf("%d vs %d hooks, first at %d:\nRun       %+v\nreference %+v",
		len(got), len(want), i, got[i:min(i+1, len(got))], want[i:min(i+1, len(want))])
}

// checkContracts holds one completed run to the laws DESIGN.md §7 states:
//   - conservation: Deliveries = Packets - Dropped + Duplicated - unroutable,
//     each count as the packet records tell it;
//   - Exact + Stragglers = Deliveries;
//   - SendGuest <= Ideal <= Arrival, with Arrival == Ideal for an exact
//     delivery;
//   - the quantum records tile guest and host time from zero, each Q lies in
//     [MinQ, MaxQ], and a quantum with Q <= T delivers no straggler;
//   - each node's busy and idle records tile its guest time from 0 to the
//     last barrier, ascending in host time, and their host extents sum to
//     HostBusy + HostIdle.
func checkContracts(t *testing.T, label string, o observed) {
	t.Helper()
	s, rec := o.res.Stats, o.rec
	delivered, dropped, dups := 0, 0, 0
	for i, p := range rec.Packets {
		if p.SendGuest > p.Ideal || !p.Dropped && (p.Arrival < p.Ideal || !p.Straggler && p.Arrival != p.Ideal) {
			t.Fatalf("%s: packet %d breaks SendGuest <= Ideal <= Arrival, exact at Ideal: %+v", label, i, p)
		}
		if p.Dropped {
			dropped++
			continue
		}
		delivered++
		if p.Duplicate {
			dups++
		}
	}
	unroutable := s.Packets - (delivered - dups) - dropped
	if s.Deliveries != delivered || s.Dropped != dropped || s.Duplicated != dups || unroutable < 0 ||
		s.Deliveries != s.Packets-s.Dropped+s.Duplicated-unroutable {
		t.Errorf("%s: Stats %+v break conservation; the records show %d delivered, %d dropped, %d duplicates",
			label, s, delivered, dropped, dups)
	}
	if s.Exact+s.Stragglers != s.Deliveries {
		t.Errorf("%s: exact %d + stragglers %d != deliveries %d", label, s.Exact, s.Stragglers, s.Deliveries)
	}
	packets, stragglers := 0, 0
	var next simtime.Guest
	var release simtime.Host
	for i, q := range rec.Quanta {
		if q.Index != i || q.Start != next || q.HostStart != release || q.HostEnd < q.HostStart {
			t.Fatalf("%s: quantum record %d does not start where record %d ended: %+v", label, i, i-1, q)
		}
		next, release = q.Start.Add(q.Q), q.HostEnd
		packets += q.Packets
		stragglers += q.Stragglers
		if q.Q < s.MinQ || q.Q > s.MaxQ {
			t.Fatalf("%s: quantum %d has Q = %v outside [%v, %v]", label, q.Index, q.Q, s.MinQ, s.MaxQ)
		}
		if q.Q <= o.probe.lookahead && q.Stragglers != 0 {
			t.Fatalf("%s: quantum %d has Q = %v <= T = %v and %d stragglers", label, q.Index, q.Q, o.probe.lookahead, q.Stragglers)
		}
	}
	if len(rec.Quanta) != s.Quanta || packets != s.Packets || stragglers != s.Stragglers {
		t.Errorf("%s: %d quantum records carry %d packets and %d stragglers, Stats %d, %d and %d",
			label, len(rec.Quanta), packets, stragglers, s.Quanta, s.Packets, s.Stragglers)
	}

	g := make([]simtime.Guest, len(o.res.NodeFinish))
	h := make([]simtime.Host, len(o.res.NodeFinish))
	var extent simtime.Duration
	for _, ph := range o.probe.phases {
		if ph.ph == obs.PhaseDone {
			continue
		}
		if ph.g0 != g[ph.node] || ph.g1 < ph.g0 || ph.h0 < h[ph.node] || ph.h1 < ph.h0 {
			t.Fatalf("%s: node %d quantum %d: %v record covers guest %v-%v, host %v-%v; the previous one ended at %v, %v",
				label, ph.node, ph.qi, ph.ph, ph.g0, ph.g1, ph.h0, ph.h1, g[ph.node], h[ph.node])
		}
		g[ph.node], h[ph.node] = ph.g1, ph.h1
		extent += ph.h1.Sub(ph.h0)
	}
	for i, at := range g {
		if at != next {
			t.Errorf("%s: node %d's records end at guest %v, the run at %v", label, i, at, next)
		}
	}
	if extent != s.HostBusy+s.HostIdle {
		t.Errorf("%s: busy and idle records cover %v of host time, HostBusy + HostIdle = %v", label, extent, s.HostBusy+s.HostIdle)
	}
}

// diffRun is one configuration run three times: observed on Run and on the
// reference, and unobserved on Run.
type diffRun struct {
	got, ref observed
	bare     *Result
	bareErr  error
}

func runDifferential(cfg Config) *diffRun {
	d := &diffRun{ref: observe(simulateReference, cfg), got: observe(Run, cfg)}
	d.bare, d.bareErr = Run(cfg)
	return d
}

// require holds the runs to everything the differential checks of any
// configuration.
func (d *diffRun) require(t *testing.T) {
	t.Helper()
	d.requireSame(t)
	d.requireContracts(t)
	requireRecorded(t, "Run", d.got)
	requireRecorded(t, "reference", d.ref)
	requireSummary(t, d.got)
}

// requireSame holds Run to the reference, and the observed run to the
// unobserved one: observing must not perturb the run, and the run must be
// deterministic.
func (d *diffRun) requireSame(t *testing.T) {
	t.Helper()
	requireSameRun(t, d.got, d.ref)
	if fmt.Sprint(d.bareErr) != fmt.Sprint(d.got.err) || !reflect.DeepEqual(d.bare, d.got.res) {
		t.Errorf("observing changed the run: %v %+v, unobserved %v %+v", d.got.err, d.got.res, d.bareErr, d.bare)
	}
}

// requireContracts holds both observed runs, if they completed, to the
// contracts.
func (d *diffRun) requireContracts(t *testing.T) {
	t.Helper()
	if d.ref.err == nil && d.got.err == nil {
		checkContracts(t, "reference", d.ref)
		checkContracts(t, "Run", d.got)
	}
}

// requireRecorded: obs.Recorder keeps exactly the stream's Packet and
// QuantumEnd hooks, in stream order, one QuantumEnd per quantum.
func requireRecorded(t *testing.T, label string, o observed) {
	t.Helper()
	var pkts []obs.PacketRecord
	var quanta []obs.QuantumRecord
	for _, tp := range o.probe.pkts {
		pkts = append(pkts, tp.rec)
	}
	for _, h := range o.probe.quanta {
		if q, ok := h.(obs.QuantumRecord); ok {
			quanta = append(quanta, q)
		}
	}
	if !reflect.DeepEqual(o.rec.Packets, pkts) || !reflect.DeepEqual(o.rec.Quanta, quanta) {
		t.Errorf("%s: obs.Recorder holds %d packets and %d quanta, not the stream's %d and %d",
			label, len(o.rec.Packets), len(o.rec.Quanta), len(pkts), len(quanta))
	}
	if o.res != nil && len(quanta) != o.res.Stats.Quanta {
		t.Errorf("%s: the stream carried %d QuantumEnd hooks, Stats.Quanta = %d", label, len(quanta), o.res.Stats.Quanta)
	}
}

// requireSummary: the RunSummary counts the quanta and node-quanta the skip
// probe saw fast-forwarded.
func requireSummary(t *testing.T, o observed) {
	t.Helper()
	if s := o.probe.sum; s.QuietQuanta != len(o.quiet) || s.QuietNodeQuanta != len(o.skipped) {
		t.Errorf("RunSummary reports %d quiet quanta and %d node-quanta, the skip probe saw %d and %d",
			s.QuietQuanta, s.QuietNodeQuanta, len(o.quiet), len(o.skipped))
	}
}

// diffRow is one configuration of the differential.
type diffRow struct {
	key, name string // key tells apart rows the tests below share
	cfg       Config
	aborts    bool
	collapses bool // some quiet stretch must be longer than one quantum
	never     bool // none may be
}

// diffRuns holds the rows' runs by key. TestDifferential holds every row to
// everything; the tests after it each read one facet of the rows they cover.
// A row runs once per test binary, whichever test asks first.
var diffRuns = map[string]*diffRun{}

func (r diffRow) run() *diffRun {
	d := diffRuns[r.key]
	if d == nil {
		d = runDifferential(r.cfg)
		diffRuns[r.key] = d
	}
	return d
}

// requireShape checks how the row's run must end and whether its quiet
// stretches may collapse.
func (r diffRow) requireShape(t *testing.T, d *diffRun) {
	t.Helper()
	if r.aborts != errors.Is(d.got.err, ErrGuestLimit) {
		t.Errorf("run ended with %v, want a guest-limit abort: %v", d.got.err, r.aborts)
	}
	collapsed := slices.ContainsFunc(d.got.stretches, func(k int) bool { return k > 1 })
	if r.collapses && !collapsed || r.never && collapsed {
		t.Errorf("stretches of %v quanta; want one longer than a quantum: %v, want none: %v", d.got.stretches, r.collapses, r.never)
	}
}

func caseRow(c fastCase) diffRow { return diffRow{key: c.name, name: c.name, cfg: c.config()} }

// matrixRows is the behaviour matrix and the 64-node sparse case.
func matrixRows() []diffRow {
	var rows []diffRow
	for _, c := range append(fastCases(), sparseCase(15)) {
		rows = append(rows, caseRow(c))
	}
	return rows
}

// trialRows is n random fat-tree/fault scenarios drawn from seed.
func trialRows(seed int64, n int) []diffRow {
	rnd := rand.New(rand.NewSource(seed))
	var rows []diffRow
	for trial := 0; trial < n; trial++ {
		c, _ := randomFatTreeCase(rnd, trial)
		rows = append(rows, diffRow{key: fmt.Sprintf("%d/%s", seed, c.name), name: c.name, cfg: c.config()})
	}
	return rows
}

// stretchRows is phases-4's traffic under a sampling schedule, and silent
// clusters whose quiet stretches collapse: at quanta that divide a jitter
// window (1µs, 10µs), straddle its edges (3µs) and exceed it (25µs), with a
// sampling schedule, per-node host slowdowns, and a guest limit that falls
// inside a window.
func stretchRows() []diffRow {
	sampling := &host.Sampling{Period: 7 * simtime.Microsecond, DetailFraction: 0.4, FastSlowdown: 2}
	var rows []diffRow
	for _, c := range fastCases() {
		if c.name == "phases-4" {
			sampled := c.config()
			sampled.Host.Sampling = sampling
			rows = append(rows, diffRow{key: c.name + "/sampling", name: c.name + "/sampling", cfg: sampled, never: true})
		}
	}
	for _, nodes := range []int{8, 64} {
		for _, q := range []simtime.Duration{1, 3, 10, 25} {
			base := testConfig(nodes, workloads.Silent(300*simtime.Microsecond), fixed(q*simtime.Microsecond))
			sampled, slowed, limited := base, base, base
			sampled.Host.Sampling = sampling
			slowed.Faults = &faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5, 5: 1.3}}
			limited.MaxGuest = simtime.Guest(47500 * simtime.Nanosecond)
			name, collapses := fmt.Sprintf("silent-%d/Q=%dus", nodes, q), q < 10
			rows = append(rows,
				diffRow{key: name, name: name, cfg: base, collapses: collapses, never: !collapses},
				diffRow{key: name + "/sampling", name: name + "/sampling", cfg: sampled, never: true},
				diffRow{key: name + "/slow", name: name + "/slow", cfg: slowed, collapses: collapses},
				diffRow{key: name + "/maxguest", name: name + "/maxguest", cfg: limited, collapses: collapses, aborts: true})
		}
	}
	return rows
}

// ruledOutConfigs is a configuration whose lookahead a zero-latency link rules
// out, and one whose lookahead a one-node cluster does.
func ruledOutConfigs() (zero, one Config) {
	zero = testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), fixed(simtime.Microsecond))
	zero.Net = &netmodel.Model{NIC: &netmodel.SimpleNIC{}, Switch: netmodel.PerfectSwitch{}}
	return zero, testConfig(1, workloads.Silent(50*simtime.Microsecond), fixed(simtime.Microsecond))
}

// boundaryRows is the rule's boundary and both ruled-out lookaheads.
func boundaryRows() []diffRow {
	// A host that runs guest code at guest speed, with no jitter and a frame's
	// trip to the controller as long as its link latency, so that a frame
	// reaches the controller as its walking destination reaches the frame's
	// arrival time — which is still an exact delivery.
	tie := testConfig(4, workloads.Uniform(40, 1000, 10*simtime.Microsecond, 5), fixed(5*simtime.Microsecond))
	tie.Net = &netmodel.Model{NIC: &netmodel.SimpleNIC{BaseLatency: simtime.Microsecond}, Switch: netmodel.PerfectSwitch{}}
	tie.Host = host.Params{BusySlowdown: 1, IdleSlowdown: 1, JitterPeriod: 10 * simtime.Microsecond,
		BarrierCost: simtime.Microsecond, PacketTransit: simtime.Microsecond, Seed: 1}
	// Lookahead ruled out: every quantum is the whole cluster, and the stream
	// names no partition.
	zero, one := ruledOutConfigs()
	return []diffRow{
		{key: "arrival-ties-4", name: "arrival-ties-4", cfg: tie},
		{key: "zero-latency-4", name: "zero-latency-4", cfg: zero},
		{key: "one-node", name: "one-node", cfg: one},
	}
}

// TestDifferential holds Run to the reference engine (reference_test.go) over
// the behaviour matrix, the 64-node sparse case, random fat-tree/fault
// scenarios, an arrival-tie boundary, both ruled-out lookaheads, and silent
// clusters whose quiet stretches collapse.
func TestDifferential(t *testing.T) {
	rows := slices.Concat(matrixRows(), stretchRows(), boundaryRows(),
		trialRows(20260807, 10), trialRows(20260928, 8), trialRows(20260929, 6))
	whole, partial := 0, 0
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			d.require(t)
			r.requireShape(t, d)
			whole += len(d.got.quiet)
			partial += len(d.got.skipped) - r.cfg.Nodes*len(d.got.quiet)
		})
	}
	if whole == 0 || partial == 0 {
		t.Errorf("fast-forwarded %d quiet quanta and %d node-quanta of stepped quanta: the comparison is vacuous", whole, partial)
	}
}

// TestFastPathMatchesClassicSemantics: on the behaviour matrix and the sparse
// case, Run — partitioned, fast-forwarded, its quiet stretches collapsed —
// reproduces every number of the reference, which steps every node through
// every quantum on one event list.
func TestFastPathMatchesClassicSemantics(t *testing.T) {
	for _, r := range matrixRows() {
		t.Run(r.name, func(t *testing.T) { r.run().requireSame(t) })
	}
}

// TestQuietPassDifferential: over the behaviour matrix, the sparse case and
// random fat-tree/fault scenarios, the run the quiet pass fast-forwards
// matches the reference, which fast-forwards nothing, and its summary counts
// what the pass skipped — whole quanta on some rows, single nodes of stepped
// quanta on others.
func TestQuietPassDifferential(t *testing.T) {
	whole, partial := 0, 0
	for _, r := range slices.Concat(matrixRows(), trialRows(20260928, 8)) {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			d.requireSame(t)
			requireSummary(t, d.got)
			whole += len(d.got.quiet)
			partial += len(d.got.skipped) - r.cfg.Nodes*len(d.got.quiet)
		})
	}
	if whole == 0 || partial == 0 {
		t.Errorf("fast-forwarded %d quiet quanta and %d node-quanta of stepped quanta: the comparison is vacuous", whole, partial)
	}
}

// TestQuietStretchDifferential: quiet stretches collapse where the row
// expects it and nowhere else, a guest limit inside a stretch aborts as it
// does on the reference, and collapsing changes nothing the reference can
// tell apart.
func TestQuietStretchDifferential(t *testing.T) {
	for _, r := range slices.Concat(matrixRows(), stretchRows()) {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			d.requireSame(t)
			r.requireShape(t, d)
		})
	}
}

// TestRecorderStream: on Run and on the reference, an obs.Recorder keeps
// exactly the stream's Packet and QuantumEnd hooks in stream order, and the
// canonical encoding of the recorded run does not depend on which engine
// produced it.
func TestRecorderStream(t *testing.T) {
	for _, c := range fastCases() {
		r := caseRow(c)
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			if d.got.err != nil || d.ref.err != nil {
				t.Fatalf("Run: %v, reference: %v", d.got.err, d.ref.err)
			}
			requireRecorded(t, "Run", d.got)
			requireRecorded(t, "reference", d.ref)
			if !bytes.Equal(CanonicalResult(d.got.res, d.got.rec), CanonicalResult(d.ref.res, d.ref.rec)) {
				t.Error("CanonicalResult differs between Run and the reference")
			}
		})
	}
}

// TestNodePhaseTiling: on Run and on the reference, over the behaviour
// matrix, the sparse case and random scenarios, the runs keep the contracts —
// each node's busy and idle records tile its guest time and reconcile with
// HostBusy + HostIdle among them. The quiet pass reports a node's quantum
// while the node's own clock lags (DESIGN.md §7.1); a path that read the
// lagging clock would open a gap here, so some node-quanta must be skipped.
func TestNodePhaseTiling(t *testing.T) {
	lagged := 0
	for _, r := range slices.Concat(matrixRows(), trialRows(20260929, 6)) {
		t.Run(r.name, func(t *testing.T) {
			d := r.run()
			d.requireContracts(t)
			lagged += d.got.probe.sum.QuietNodeQuanta
		})
	}
	if lagged == 0 {
		t.Error("no node-quantum was fast-forwarded: the lagging-clock half of the test is vacuous")
	}
}

// FuzzDifferential is TestDifferential over random scenarios: topology,
// quantum and fault plan drawn by randomFatTreeCase from the seed, and the
// case's fixed policy or an adaptive one.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{20260807, 20260928, 20260929, 20261002} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, adaptivePolicy bool) {
		c, _ := randomFatTreeCase(rand.New(rand.NewSource(seed)), 0)
		if adaptivePolicy {
			c.pol = adaptive(simtime.Microsecond, 200*simtime.Microsecond, 1.1, 0.02)
		}
		runDifferential(c.config()).require(t)
	})
}
