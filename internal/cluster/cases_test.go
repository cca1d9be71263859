package cluster

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"clustersim/internal/faults"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// This file is the package's one table of runs. Every configuration a test
// observes through Run is a row here: TestDifferential holds each row to the
// reference engine and the contracts, and every other test that reads a run
// is a view over the rows' memoized runs (diffRuns). A bespoke Config remains
// only where no row can express the setup: allocation pins, panics and exits,
// validation, the lookahead closure, RunParallel's own runs and benchmarks.

// diffRow is one configuration of the table.
type diffRow struct {
	key, name string // key tells apart rows whose names coincide ("" is name)
	cfg       Config
	aborts    bool // the run must end at the guest limit
	collapses bool // some quiet stretch must be longer than one quantum
	never     bool // none may be
}

func row(name string, nodes int, w workloads.Workload, pol func() quantum.Policy, mods ...func(*Config)) diffRow {
	cfg := testConfig(nodes, w, pol)
	for _, mod := range mods {
		mod(&cfg)
	}
	return diffRow{name: name, cfg: cfg}
}

func onNet(m *netmodel.Model) func(*Config) { return func(c *Config) { c.Net = m } }
func withPlan(p *faults.Plan) func(*Config) { return func(c *Config) { c.Faults = p } }

// diffRuns holds the rows' runs by key: a row runs once per test binary,
// whichever test asks first. Tests stay sequential; the map is unguarded.
var diffRuns = map[string]*diffRun{}

func (r diffRow) run() *diffRun {
	k := cmp.Or(r.key, r.name)
	d := diffRuns[k]
	if d == nil {
		d = newDiffRun(r)
		diffRuns[k] = d
	}
	return d
}

// named is the memoized run of the table's row called name.
func named(name string) *diffRun { return rowNamed(name).run() }

// rowNamed is the table's row called name.
func rowNamed(name string) diffRow {
	rows := allRows()
	return rows[slices.IndexFunc(rows, func(r diffRow) bool { return r.name == name })]
}

// allRows is the table, in TestDifferential's order.
func allRows() []diffRow {
	return slices.Concat(matrixRows(), stretchRows(), boundaryRows(),
		trialRows(20260807, 10), trialRows(20260928, 8), trialRows(20260929, 6),
		fixtureRows(), paperRows(), trialRows(20261002, 8), hostTwins(), queueRows())
}

// caseRows span the behaviors every partitioning must preserve: lockstep
// traffic with equal-arrival ties (PingPong at 2 and 4 nodes), bursty
// compute/communicate phases, seeded irregular traffic, silence, loss,
// duplication and jitter, a host slowdown, tight racks beside loose nodes,
// and an adaptive policy that moves in and out of the safe window mid-run.
func caseRows() []diffRow {
	us := simtime.Microsecond
	lossy := &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}
	faulty := &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * us}}
	wanFaults := &faults.Plan{Seed: 9, Default: faults.Link{Loss: 0.05, Dup: 0.1, Jitter: 3 * us}}
	return []diffRow{
		row("pingpong-2", 2, workloads.PingPong(30, 1000), fixed(us)),
		row("pingpong-4", 4, workloads.PingPong(20, 4000), fixed(us)),
		row("phases-4", 4, workloads.Phases(3, 150*us, 32<<10), fixed(us)),
		row("phases-adaptive-5", 5, workloads.Phases(3, 150*us, 16<<10), adaptive(us, simtime.Millisecond, 1.03, 0.02)),
		row("phases-16", 16, workloads.Phases(2, 40*us, 4<<10), fixed(us)),
		row("uniform-3", 3, workloads.Uniform(60, 2000, 30*us, 11), fixed(us)),
		row("uniform-lossy-4", 4, workloads.Uniform(60, 1500, 20*us, 23), fixed(us), withPlan(lossy)),
		row("silent-4", 4, workloads.Silent(300*us), fixed(us)),
		row("faulty-4", 4, workloads.Uniform(60, 1500, 20*us, 23), fixed(us), withPlan(faulty)),
		row("slowdown-3", 3, workloads.PingPong(20, 1000), fixed(us),
			withPlan(&faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5}})),
		// Two tight racks, loose to each other, and no loose node.
		row("rack-mid-8", 8, workloads.Uniform(120, 2000, 30*us, 11), fixed(2*us), onNet(rackNet())),
		// The same racks under a packet-heavy alltoall at a Q between the
		// latency levels: a quantum defers more than a dozen cross-rack frames,
		// their senders interleaved, so only a stable or (node, send) order
		// routes each sender's frames in the order it sent them.
		row("rack-alltoall-8", 8, workloads.Phases(2, 40*us, 128<<10), fixed(3*us), onNet(rackNet())),
		// One tight rack plus distant loose singletons, clean, faulty, and
		// under a policy that slides across all three bands.
		row("mixed-wan-8", 8, workloads.Uniform(120, 2000, 30*us, 17), fixed(2*us), onNet(mixedWANNet(8))),
		row("mixed-wan-faulty-8", 8, workloads.Uniform(120, 2000, 30*us, 17), fixed(2*us), onNet(mixedWANNet(8)), withPlan(wanFaults)),
		row("mixed-wan-adaptive-8", 8, workloads.Uniform(120, 2000, 30*us, 19), adaptive(us, 200*us, 1.1, 0.02), onNet(mixedWANNet(8))),
	}
}

// matrixRows is caseRows and simbench's graded-mixedwan64 geometry: one tight
// four-node rack and sixty WAN singletons at Q = 2µs, a handful of nodes
// acting in a stepped quantum among dozens that cannot.
func matrixRows() []diffRow {
	return append(caseRows(), row("mixed-wan-64", 64, workloads.Uniform(15, 4000, 100*simtime.Microsecond, 29),
		fixed(2*simtime.Microsecond), onNet(mixedWANNetAt(64, 2*simtime.Microsecond))))
}

// profRows is caseRows, phases-4 at Q = 100µs and phases-6 at Q = 70µs and
// 1ms, the attribution's rows. The phases-6 rows tie the cluster into one
// tight partition, so their idle totals hold to HostIdle only if the
// event-queue walk's refunds are exact: a straggler's truncation at 70µs, an
// earlier arrival's re-aim at 1ms.
func profRows() []diffRow {
	return append(caseRows(), phases100us(), rowNamed("phases-6/Q=70µs"), rowNamed("phases-6/Q=1ms"))
}

func phases100us() diffRow {
	return row("phases-100us-4", 4, workloads.Phases(3, 150*simtime.Microsecond, 32<<10), fixed(100*simtime.Microsecond))
}

// rackNet builds a two-level fat-tree: racks of 4 nodes behind edge switches
// (500ns) joined by a core layer (+2µs).
func rackNet() *netmodel.Model {
	m := netmodel.Paper()
	m.Switch = &netmodel.FatTreeSwitch{Radix: 4, EdgeLatency: 500 * simtime.Nanosecond, CoreLatency: 2 * simtime.Microsecond}
	return m
}

// mixedWANNet puts the first four nodes in one 500ns rack and every other
// node 50µs away from everything: a tight rack plus loose WAN singletons.
func mixedWANNet(nodes int) *netmodel.Model { return mixedWANNetAt(nodes, 50*simtime.Microsecond) }

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

// stretchRows is phases-4's traffic under a sampling schedule, and silent
// clusters whose quiet stretches collapse: at quanta that divide a jitter
// window (1µs, 10µs), straddle its edges (3µs) and exceed it (25µs), with a
// sampling schedule, per-node host slowdowns, and a guest limit that falls
// inside a window.
func stretchRows() []diffRow {
	sampling := &host.Sampling{Period: 7 * simtime.Microsecond, DetailFraction: 0.4, FastSlowdown: 2}
	sampled := caseRows()[2]
	sampled.name, sampled.cfg.Host.Sampling, sampled.never = sampled.name+"/sampling", sampling, true
	rows := []diffRow{sampled}
	for _, nodes := range []int{8, 64} {
		for _, q := range []simtime.Duration{1, 3, 10, 25} {
			base := row(fmt.Sprintf("silent-%d/Q=%dus", nodes, q), nodes, workloads.Silent(300*simtime.Microsecond), fixed(q*simtime.Microsecond))
			base.collapses, base.never = q < 10, q >= 10
			sampled, slowed, limited := base, base, base
			sampled.name, sampled.cfg.Host.Sampling, sampled.collapses, sampled.never = base.name+"/sampling", sampling, false, true
			slowed.name, slowed.cfg.Faults, slowed.never = base.name+"/slow", &faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5, 5: 1.3}}, false
			limited.name, limited.cfg.MaxGuest, limited.never, limited.aborts = base.name+"/maxguest", simtime.Guest(47500*simtime.Nanosecond), false, true
			rows = append(rows, base, sampled, slowed, limited)
		}
	}
	return rows
}

// boundaryRows is the delivery rule's boundary and both ruled-out lookaheads.
func boundaryRows() []diffRow {
	// A host that runs guest code at guest speed, with no jitter and a frame's
	// trip to the controller as long as its link latency, so that a frame
	// reaches the controller as its walking destination reaches the frame's
	// arrival time — which is still an exact delivery.
	tie := testConfig(4, workloads.Uniform(40, 1000, 10*simtime.Microsecond, 5), fixed(5*simtime.Microsecond))
	tie.Net = &netmodel.Model{NIC: &netmodel.SimpleNIC{BaseLatency: simtime.Microsecond}, Switch: netmodel.PerfectSwitch{}}
	tie.Host = host.Params{BusySlowdown: 1, IdleSlowdown: 1, JitterPeriod: 10 * simtime.Microsecond,
		BarrierCost: simtime.Microsecond, PacketTransit: simtime.Microsecond, Seed: 1}
	return []diffRow{{name: "arrival-ties-4", cfg: tie},
		row("zero-latency-4", 4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), fixed(simtime.Microsecond),
			onNet(&netmodel.Model{NIC: &netmodel.SimpleNIC{}, Switch: netmodel.PerfectSwitch{}})),
		row("one-node", 1, workloads.Silent(50*simtime.Microsecond), fixed(simtime.Microsecond))}
}

// trialRows is n random fat-tree/fault scenarios drawn from seed.
func trialRows(seed int64, n int) []diffRow {
	rnd := rand.New(rand.NewSource(seed))
	var rows []diffRow
	for trial := 0; trial < n; trial++ {
		r := randomFatTreeRow(rnd, trial)
		r.key = fmt.Sprintf("%d/%s", seed, r.name)
		rows = append(rows, r)
	}
	return rows
}

// randomFatTreeRow draws one random scenario: fat-tree geometry, workload,
// fixed quantum and (half the time) a fault plan with duplication, jitter
// and, where the workload tolerates it, loss.
func randomFatTreeRow(rnd *rand.Rand, trial int) diffRow {
	nodes := 2 + rnd.Intn(7)
	net := &netmodel.Model{
		NIC: &netmodel.SimpleNIC{
			BaseLatency:    simtime.Duration(500+rnd.Intn(1500)) * simtime.Nanosecond,
			BytesPerSecond: 10e9,
		},
		Switch: &netmodel.FatTreeSwitch{
			Radix:       2 + rnd.Intn(3),
			EdgeLatency: simtime.Duration(500+rnd.Intn(1500)) * simtime.Nanosecond,
			CoreLatency: simtime.Duration(2+rnd.Intn(40)) * simtime.Microsecond,
		},
	}
	// Loss pairs only with the fire-and-forget Uniform workload: a collective
	// or request/reply protocol waits forever for a lost message.
	var w workloads.Workload
	lossOK := false
	switch rnd.Intn(3) {
	case 0:
		w = workloads.Uniform(30+rnd.Intn(50), 500+rnd.Intn(3500),
			simtime.Duration(10+rnd.Intn(30))*simtime.Microsecond, rnd.Uint64())
		lossOK = true
	case 1:
		w = workloads.Phases(2+rnd.Intn(3),
			simtime.Duration(100+rnd.Intn(100))*simtime.Microsecond, 8<<10+rnd.Intn(24<<10))
	default:
		w = workloads.PingPong(10+rnd.Intn(20), 500+rnd.Intn(3500))
	}
	qs := []simtime.Duration{simtime.Microsecond, 2 * simtime.Microsecond,
		5 * simtime.Microsecond, 50 * simtime.Microsecond}
	q := qs[rnd.Intn(len(qs))]
	var plan *faults.Plan
	if rnd.Intn(2) == 0 {
		link := faults.Link{
			Dup:    rnd.Float64() * 0.25,
			Jitter: simtime.Duration(rnd.Intn(4000)) * simtime.Nanosecond,
		}
		if lossOK {
			link.Loss = rnd.Float64() * 0.25
		}
		plan = &faults.Plan{Seed: rnd.Uint64(), Default: link}
	}
	name := fmt.Sprintf("trial %d: %s ×%d Q=%v faults=%v", trial, w.Name, nodes, q, plan != nil)
	return row(name, nodes, w, fixed(q), onNet(net), withPlan(plan))
}

// fixtureRows are the configurations single tests read: the frame walks'
// edge cases, fault semantics, the profiler's rack, the refund runs, the
// quiet pass's shapes and the Q sweeps of the paper's properties.
func fixtureRows() []diffRow {
	us, ms := simtime.Microsecond, simtime.Millisecond
	var rows []diffRow
	for _, fw := range frameWalks {
		rows = append(rows,
			row("broadcast-6/"+fw.name, 6, broadcastOnce(), fixed(fw.q)),
			row("self-send-2/"+fw.name, 2, selfSend(), fixed(fw.q)),
			row("unknown-mac-2/"+fw.name, 2, strayFrame(), fixed(fw.q)))
	}
	seeded := func(seed uint64) func(*Config) {
		return withPlan(&faults.Plan{Seed: seed, Default: faults.Link{Loss: 0.3, Dup: 0.1, Jitter: 2 * us}})
	}
	uniform4 := workloads.Uniform(60, 1500, 20*us, 23)
	limited := row("pingpong-2/maxguest", 2, workloads.PingPong(1000000, 100), fixed(us))
	limited.cfg.MaxGuest, limited.aborts = simtime.Guest(500*us), true
	rows = append(rows, phases100us(),
		row("broadcast-adaptive-4", 4, broadcastAdaptive(), adaptive(us, ms, 1.05, 0.02)),
		// One sent frame, ten delivered copies of its value.
		row("broadcast-6/dup", 6, broadcastOnce(), fixed(us), withPlan(&faults.Plan{Seed: 1, Default: faults.Link{Dup: 1}})),
		row("pingpong-100us-3", 3, workloads.PingPong(20, 1000), fixed(100*us)),
		row("pingpong-100us-3/empty-plan", 3, workloads.PingPong(20, 1000), fixed(100*us), withPlan(&faults.Plan{Seed: 99})),
		row("pingpong-200us-2", 2, workloads.PingPong(30, 1000), fixed(200*us)),
		row("pingpong-200us-2/dup", 2, workloads.PingPong(30, 1000), fixed(200*us), withPlan(&faults.Plan{Seed: 1, Default: faults.Link{Dup: 1}})),
		row("pingpong-2/slow-2x", 2, workloads.PingPong(30, 1000), fixed(us), withPlan(&faults.Plan{NodeSlowdown: map[int]float64{0: 2, 1: 2}})),
		limited,
		row("uniform-100us-4/link-down", 4, uniform4, fixed(100*us),
			withPlan(&faults.Plan{Default: faults.Link{Down: []faults.Window{{Start: 0, End: simtime.GuestInfinity}}}})),
		row("uniform-100us-4/seed=5", 4, uniform4, fixed(100*us), seeded(5)),
		row("uniform-100us-4/seed=5/replay", 4, uniform4, fixed(100*us), seeded(5)),
		row("uniform-100us-4/seed=6", 4, uniform4, fixed(100*us), seeded(6)),
		row("uniform-150-4", 4, workloads.Uniform(150, 1500, 20*us, 23), fixed(us)),
		row("uniform-150-4/jitter", 4, workloads.Uniform(150, 1500, 20*us, 23), fixed(us),
			withPlan(&faults.Plan{Seed: 7, Default: faults.Link{Jitter: 5 * us}})),
		row("rack-10us-8", 8, workloads.Uniform(120, 2000, 30*us, 11), fixed(10*us), onNet(rackNet())),
		row("phases-adaptive-4", 4, workloads.Phases(3, 150*us, 16<<10), adaptive(us, ms, 1.03, 0.02)),
		row("phases-20us-4", 4, workloads.Phases(3, 300*us, 16<<10), fixed(20*us)),
		row("phases-2ms-4", 4, workloads.Phases(4, 2*ms, 32<<10), fixed(us)),
		row("phases-2ms-4/adaptive", 4, workloads.Phases(4, 2*ms, 32<<10), adaptive(us, ms, 1.03, 0.02)),
		row("compute-chain-3", 3, computeChain(), fixed(us)),
		row("silent-1ms-4", 4, workloads.Silent(ms), fixed(us)))
	for _, q := range []simtime.Duration{us, 70 * us, ms} {
		rows = append(rows, row(fmt.Sprintf("phases-6/Q=%v", q), 6, workloads.Phases(4, 120*us, 24<<10), fixed(q)))
	}
	for _, q := range []simtime.Duration{us, 10 * us, 100 * us, ms} {
		rows = append(rows, row(fmt.Sprintf("phases-48k-4/Q=%v", q), 4, workloads.Phases(5, 200*us, 48<<10), fixed(q)))
	}
	for _, w := range []workloads.Workload{workloads.PingPong(30, 9000), workloads.Phases(3, 150*us, 32<<10), workloads.Uniform(15, 3000, 20*us, 7)} {
		for _, nodes := range []int{2, 5, 8} {
			rows = append(rows, row(fmt.Sprintf("%s-%d/Q=1µs", w.Name, nodes), nodes, w, fixed(us)))
		}
	}
	return rows
}

// paperRows are the paper's workloads at 4 nodes and Q = 1µs: the five NAS
// kernels, FT, BT and NAMD, compute scaled by 0.02 as experiments.NASSuite
// scales it.
func paperRows() []diffRow {
	ep, is, cg, mg := workloads.DefaultEP(), workloads.DefaultIS(), workloads.DefaultCG(), workloads.DefaultMG()
	lu, ft, bt, namd := workloads.DefaultLU(), workloads.DefaultFT(), workloads.DefaultBT(), workloads.DefaultNAMD()
	for _, d := range []*simtime.Duration{&ep.SerialCompute, &is.SerialComputePerIter, &cg.SerialComputePerInner,
		&mg.SerialComputeFinest, &lu.SerialComputePerStep, &ft.SerialComputePerIter, &bt.SerialComputePerStep, &namd.SerialComputePerStep} {
		*d = d.Scale(0.02)
	}
	var rows []diffRow
	for _, w := range []workloads.Workload{workloads.EP(ep), workloads.IS(is), workloads.CG(cg), workloads.MG(mg),
		workloads.LU(lu), workloads.FT(ft), workloads.BT(bt), workloads.NAMD(namd)} {
		rows = append(rows, row(w.Name+"-4", 4, w, fixed(simtime.Microsecond)))
	}
	return rows
}

// queueRows are the event-queue walk's edges, each above Q = T so that the
// whole cluster walks as one tight partition: IS's alltoall piles frames deep
// into every receive queue; with no PacketTransit a frame event ties with the
// node event whose dispatch sent it; and link jitter makes arrivals sort
// before a receive queue's tail.
func queueRows() []diffRow {
	us := simtime.Microsecond
	is := workloads.DefaultIS()
	is.Iterations, is.TotalKeyBytes = 2, 16<<20
	is.SerialComputePerIter = is.SerialComputePerIter.Scale(0.02)
	return []diffRow{
		row("nas.is-8/Q=10µs", 8, workloads.IS(is), fixed(10*us)),
		row("phases-20us-4/transit=0", 4, workloads.Phases(3, 300*us, 16<<10), fixed(20*us),
			func(c *Config) { c.Host.PacketTransit = 0 }),
		row("uniform-100us-4/jitter", 4, workloads.Uniform(60, 1500, 20*us, 23), fixed(100*us),
			withPlan(&faults.Plan{Seed: 11, Default: faults.Link{Jitter: 20 * us}})),
	}
}

// groundTruth reports whether the row runs a fixed quantum within its
// configuration's smallest link bound, where no delivery can be late.
func (r diffRow) groundTruth() bool {
	f, ok := r.cfg.Policy().(quantum.Fixed)
	return ok && f.Q <= newLookahead(r.cfg.Net, r.cfg.Nodes).min
}

// hostTwins are the matrix's ground-truth rows on a perturbed host: another
// jitter seed and spread, other busy and idle slowdowns, and dearer barriers,
// packets and controller trips. At Q <= T the guests cannot tell.
func hostTwins() []diffRow {
	var rows []diffRow
	for _, r := range matrixRows() {
		if r.groundTruth() {
			h := &r.cfg.Host
			h.Seed, h.JitterSigma, h.BusySlowdown, h.IdleSlowdown = 999, 0.5, 3, 2.5
			h.BarrierCost, h.PacketHostCost, h.PacketTransit = 3*h.BarrierCost, 5*h.PacketHostCost, 2*h.PacketTransit
			r.name += "/host"
			rows = append(rows, r)
		}
	}
	return rows
}
