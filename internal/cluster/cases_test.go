package cluster

import (
	"fmt"
	"math/rand"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

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
		// at once.
		{name: "phases-16", nodes: 16, w: workloads.Phases(2, 40*simtime.Microsecond, 4<<10), pol: fixed(simtime.Microsecond)},
		{name: "uniform-3", nodes: 3, w: workloads.Uniform(60, 2000, 30*simtime.Microsecond, 11), pol: fixed(simtime.Microsecond)},
		{name: "uniform-lossy-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}},
		{name: "silent-4", nodes: 4, w: workloads.Silent(300 * simtime.Microsecond), pol: fixed(simtime.Microsecond)},
		// A fault plan exercising loss, duplication, and delay jitter: fault
		// decisions are pure per-frame functions, so they must not break
		// agreement with the reference.
		{name: "faulty-4", nodes: 4, w: workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), pol: fixed(simtime.Microsecond),
			faults: &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}},
		// Per-node host slowdown shifts every host-time cost; results must
		// stay identical across partitionings.
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

// sparseCase is the paper-scale geometry of simbench's graded-mixedwan64 row:
// one tight four-node rack and sixty WAN singletons at Q = 2µs, with a
// handful of nodes acting in a stepped quantum among dozens that cannot.
func sparseCase(count int) fastCase {
	return fastCase{name: "mixed-wan-64", nodes: 64, w: workloads.Uniform(count, 4000, 100*simtime.Microsecond, 29),
		pol: fixed(2 * simtime.Microsecond), net: mixedWANNetAt(64, 2*simtime.Microsecond)}
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

// config builds the case's configuration; the caller attaches its sinks.
func (c fastCase) config() Config {
	cfg := testConfig(c.nodes, c.w, c.pol)
	if c.net != nil {
		cfg.Net = c.net
	}
	cfg.Faults = c.faults
	return cfg
}

// randomFatTreeCase draws one random scenario — fat-tree geometry, workload,
// fixed quantum and (half the time) a fault plan with duplication, jitter
// and, where the workload tolerates it, loss — in the fastCase shape.
func randomFatTreeCase(rnd *rand.Rand, trial int) (c fastCase, q simtime.Duration) {
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
	// Fault plans that drop frames pair only with the fire-and-forget
	// Uniform workload: a collective or request/reply protocol waits
	// forever for a lost message (the suite-wide convention, see
	// fastCases). Duplication and jitter alone are safe everywhere.
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
	q = qs[rnd.Intn(len(qs))]
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
	return fastCase{name: name, nodes: nodes, w: w, pol: fixed(q), faults: plan, net: net}, q
}
