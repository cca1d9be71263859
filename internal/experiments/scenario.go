package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// Scenario is one entry of the scenario regression fleet (DESIGN.md §8).
// String fields reuse the CLI flag syntaxes (simtime durations, faults.Parse
// specs, rack topologies) so a scenario is a clustersim invocation made data
// — and clustersim's flags fill one: Resolve is the one door both go through.
type Scenario struct {
	// Name uniquely identifies the scenario; goldens are keyed on it.
	Name string
	// Workload names a workload known to ResolveWorkload (nas.ep, pingpong,
	// phases, reliable-phases, uniform, silent, ...).
	Workload string
	// Scale multiplies the workload's compute phases; Resolve refuses one
	// that is not positive and finite.
	Scale float64
	// Nodes is the cluster size.
	Nodes int
	// Quantum is a fixed quantum ("100us"); Dyn, when set, selects the
	// adaptive policy as min:max:inc:dec and overrides Quantum.
	Quantum string
	Dyn     string
	// Topo overrides the paper's perfect switch: "" keeps it,
	// "rack:<radix>:<edge>:<core>" builds a two-level fat-tree, and
	// "mixedwan:<rack>:<rackLat>:<wanLat>" builds one tight rack of the
	// given size with every other node a WAN singleton — the geometry that
	// puts a tight partition beside loose nodes.
	Topo string
	// Faults is a faults.Parse spec (empty = no plan); FaultSeed keys its
	// decisions (0 means 1).
	Faults    string
	FaultSeed uint64
	// Seed is the host-model seed (0 means 1).
	Seed uint64
	// MaxGuest caps guest time ("50ms"); empty keeps the environment
	// default. Fleet scenarios should set it low enough to stay cheap.
	MaxGuest string
}

// Resolved is what a scenario's fields resolve to: the workload, the policy
// constructor, and the environment — seed, topology, guest limit and fault
// plan (Env.Faults) applied to DefaultEnv.
type Resolved struct {
	Workload workloads.Workload
	Env      Env
	Policy   func() quantum.Policy
}

// Resolve resolves every field of the scenario. It is the single validation
// point of clustersim's flags and of the fleet's scenarios (it is cheap and
// pure).
func (sc *Scenario) Resolve() (*Resolved, error) {
	w, err := ResolveWorkload(sc.Workload, sc.Scale)
	if err != nil {
		return nil, err
	}
	if sc.Nodes < 1 {
		return nil, fmt.Errorf("nodes: need at least 1 node, got %d", sc.Nodes)
	}
	policy, err := ParsePolicy(sc.Quantum, sc.Dyn)
	if err != nil {
		return nil, err
	}
	env := DefaultEnv()
	if sc.Seed != 0 {
		env.Host.Seed = sc.Seed
	}
	if sc.Topo != "" {
		sw, err := ParseTopo(sc.Topo)
		if err != nil {
			return nil, err
		}
		env.Net.Switch = sw
	}
	if sc.MaxGuest != "" {
		d, err := simtime.ParseDuration(sc.MaxGuest)
		if err != nil {
			return nil, fmt.Errorf("max_guest: %v", err)
		}
		env.MaxGuest = simtime.Guest(d)
	}
	seed := sc.FaultSeed
	if seed == 0 {
		seed = 1
	}
	if env.Faults, err = faults.Parse(sc.Faults, seed); err != nil {
		return nil, err
	}
	return &Resolved{Workload: w, Env: env, Policy: policy}, nil
}

// workloadTable is the workload vocabulary: every name ResolveWorkload
// accepts, with the constructor that scales its compute.
var workloadTable = []struct {
	name string
	make func(scale float64) workloads.Workload
}{
	{"nas.ep", nas(0)}, {"nas.is", nas(1)}, {"nas.cg", nas(2)}, {"nas.mg", nas(3)}, {"nas.lu", nas(4)},
	{"nas.ft", func(s float64) workloads.Workload {
		p := workloads.DefaultFT()
		p.SerialComputePerIter = p.SerialComputePerIter.Scale(s)
		return workloads.FT(p)
	}},
	{"nas.bt", func(s float64) workloads.Workload {
		p := workloads.DefaultBT()
		p.SerialComputePerStep = p.SerialComputePerStep.Scale(s)
		return workloads.BT(p)
	}},
	{"namd", NAMDWorkload},
	{"pingpong", func(float64) workloads.Workload { return workloads.PingPong(200, 9000) }},
	{"phases", func(s float64) workloads.Workload { return workloads.Phases(8, scaledMS(2, s), 64<<10) }},
	// Runs the reliable transport (ack/retransmit): the workload to pair
	// with loss faults — plain workloads block forever on lost frames.
	{"reliable-phases", func(s float64) workloads.Workload { return workloads.ReliablePhases(8, scaledMS(2, s), 64<<10) }},
	{"silent", func(s float64) workloads.Workload { return workloads.Silent(scaledMS(20, s)) }},
	{"uniform", func(float64) workloads.Workload { return workloads.Uniform(200, 4000, 100*simtime.Microsecond, 42) }},
}

// scaledMS is n milliseconds of compute scaled by s.
func scaledMS(n simtime.Duration, s float64) simtime.Duration {
	return simtime.Duration(float64(n*simtime.Millisecond) * s)
}

// nas constructs the i-th kernel of NASSuite.
func nas(i int) func(float64) workloads.Workload {
	return func(s float64) workloads.Workload { return NASSuite(s)[i] }
}

// WorkloadNames lists every name ResolveWorkload accepts, in table order.
func WorkloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, e := range workloadTable {
		names[i] = e.name
	}
	return names
}

// ResolveWorkload maps a workload name to its runnable form with compute
// scaled by scale — the single name registry, and the single check of the
// scale, shared by clustersim's and paperfigs' flags and the fleet.
func ResolveWorkload(name string, scale float64) (workloads.Workload, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return workloads.Workload{}, fmt.Errorf("scale: must be positive and finite, got %v", scale)
	}
	for _, e := range workloadTable {
		if e.name == name {
			return e.make(scale), nil
		}
	}
	return workloads.Workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(WorkloadNames(), ", "))
}

// ParsePolicy builds a quantum-policy constructor from the CLI/fleet
// representation: a fixed quantum string, overridden by a non-empty dyn
// spec min:max:inc:dec. An empty quantum means 1µs (ground truth). The
// parameters are held to the policy's own check here, so the constructor it
// returns never panics.
func ParsePolicy(quantumSpec, dynSpec string) (func() quantum.Policy, error) {
	if dynSpec == "" {
		if quantumSpec == "" {
			quantumSpec = "1us"
		}
		q, err := simtime.ParseDuration(quantumSpec)
		if err != nil {
			return nil, fmt.Errorf("quantum: %v", err)
		}
		if q <= 0 {
			return nil, fmt.Errorf("quantum must be positive, got %v", q)
		}
		return func() quantum.Policy { return quantum.Fixed{Q: q} }, nil
	}
	parts := strings.Split(dynSpec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("dyn wants min:max:inc:dec, got %q", dynSpec)
	}
	min, err := simtime.ParseDuration(parts[0])
	if err != nil {
		return nil, fmt.Errorf("dyn min: %v", err)
	}
	max, err := simtime.ParseDuration(parts[1])
	if err != nil {
		return nil, fmt.Errorf("dyn max: %v", err)
	}
	inc, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("dyn inc: %v", err)
	}
	dec, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return nil, fmt.Errorf("dyn dec: %v", err)
	}
	if err := (&quantum.Adaptive{Min: min, Max: max, Inc: inc, Dec: dec}).Validate(); err != nil {
		return nil, fmt.Errorf("dyn %w", err)
	}
	return func() quantum.Policy { return quantum.NewAdaptive(min, max, inc, dec) }, nil
}

// ParseTopo parses a switch-topology override. The "rack" form models racks
// of radix nodes behind edge switches joined by a core layer; the
// "mixedwan" form models one tight rack plus distant WAN singletons — the
// motivating geometry for the per-link lookahead partitioning. Used by
// clustersim's -topo flag and the fleet.
func ParseTopo(spec string) (netmodel.SwitchModel, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("topo wants rack:<radix>:<edge>:<core> or mixedwan:<rack>:<rackLat>:<wanLat>, got %q", spec)
	}
	switch parts[0] {
	case "rack":
		radix, err := strconv.Atoi(parts[1])
		if err != nil || radix < 1 {
			return nil, fmt.Errorf("topo radix %q: want a positive integer", parts[1])
		}
		edge, err := parseLatency("topo edge latency", parts[2])
		if err != nil {
			return nil, err
		}
		core, err := parseLatency("topo core latency", parts[3])
		if err != nil {
			return nil, err
		}
		return &netmodel.FatTreeSwitch{Radix: radix, EdgeLatency: edge, CoreLatency: core}, nil
	case "mixedwan":
		rack, err := strconv.Atoi(parts[1])
		if err != nil || rack < 1 {
			return nil, fmt.Errorf("topo rack size %q: want a positive integer", parts[1])
		}
		rackLat, err := parseLatency("topo rack latency", parts[2])
		if err != nil {
			return nil, err
		}
		wanLat, err := parseLatency("topo wan latency", parts[3])
		if err != nil {
			return nil, err
		}
		return &mixedWANSwitch{rack: rack, rackLat: rackLat, wanLat: wanLat}, nil
	default:
		return nil, fmt.Errorf("unknown topology kind %q (want rack or mixedwan)", parts[0])
	}
}

// parseLatency parses the named latency field of a topology spec: a duration
// that is not negative.
func parseLatency(field, s string) (simtime.Duration, error) {
	d, err := simtime.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", field, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("%s: must not be negative, got %v", field, d)
	}
	return d, nil
}

// mixedWANSwitch puts the first rack nodes at rackLat from each other and
// every other pair at wanLat: a tight rack plus loose WAN singletons, the
// geometry where the per-link lookahead matrix beats the scalar bound.
type mixedWANSwitch struct {
	rack            int
	rackLat, wanLat simtime.Duration
}

// Latency implements netmodel.SwitchModel.
func (s *mixedWANSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	if src < s.rack && dst < s.rack {
		return s.rackLat
	}
	return s.wanLat
}
