// Package cluster implements the cluster simulator of the paper: N guest
// nodes coupled through a central network controller, advancing in
// synchronization quanta chosen by a quantum policy.
//
// The engine is a deterministic discrete-event simulation over *host* time
// that simulates the parallel node simulators themselves (see DESIGN.md §4):
// it reproduces the races that create stragglers — which node simulator has
// raced ahead when a packet crosses the controller — without depending on
// real wall-clock scheduling, so every run is exactly replayable from its
// seed. A separate real-goroutine runner (parallel.go) executes the same
// models against actual wall-clock time.
package cluster

import (
	"fmt"
	"math"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// Config describes one cluster-simulation run.
type Config struct {
	// Nodes is the number of simulated nodes (the paper uses 2–64).
	Nodes int
	// Guest configures the guest CPU/NIC software costs, identical across
	// nodes.
	Guest guest.Config
	// Net is the network timing model (NIC + switch).
	Net *netmodel.Model
	// Host is the host-execution model.
	Host host.Params
	// Speeds, when non-nil, is a table of host speed draws this run shares
	// with the other runs of a sweep (host.Speeds): a draw one of them has
	// made is read, not recomputed. It never changes a result — nil, and a
	// table drawn for another Host.Seed or JitterSigma, mean every draw is
	// the run's own.
	Speeds *host.Speeds
	// Policy constructs the quantum policy for this run. A constructor
	// rather than a value because adaptive policies carry state.
	Policy func() quantum.Policy
	// Program builds the workload for each rank.
	Program func(rank, size int) guest.Program
	// MaxGuest aborts the run if the guest clock passes it without all
	// workloads finishing — a deadlock/livelock backstop. Zero disables it.
	MaxGuest simtime.Guest
	// Faults, when non-nil, injects deterministic per-link loss,
	// duplication, delay jitter, link-down windows, and per-node host
	// slowdowns (see internal/faults). Every decision is a pure function of
	// (Plan.Seed, Frame.ID, src, dst, send time), so faulty runs are
	// replayable from this config. Nil injects nothing and costs one branch per frame.
	Faults *faults.Plan
	// Observer receives streaming lifecycle hooks (quantum boundaries,
	// packet deliveries, node busy/idle segments) while the run executes. It
	// is the run's only record output: an *obs.Recorder here keeps the packet
	// and quantum records, and obs.Multi composes several sinks. Nil disables
	// all hooks at zero cost. See internal/obs.
	Observer obs.Observer
	// Profiler, Workers and Lookahead are stubs: their only remaining writers
	// outside tests are cmd/simbench/trace.go and workloads.go, and all three
	// go when that directory thaws (ROADMAP). A non-nil Profiler is one more
	// sink on the Observer stream, composed by Run as obs.Multi(Observer,
	// Profiler) — callers do that themselves. Workers and Lookahead are
	// unread: Run executes on the calling goroutine alone, and a quantum's
	// lookahead partitioning is all that decides how it runs (DESIGN.md §7,
	// §11).
	Profiler  *prof.Profiler
	Workers   int
	Lookahead LookaheadMode
	// onPartition, when non-nil, is called with each quantum's lookahead
	// partitioning (quiet quanta included, which then bypass it; see
	// onQuiet). Returning true executes the quantum as one tight partition
	// holding the whole cluster instead: every node walked through one event
	// queue, the reference the differential tests hold every other
	// partitioning to. Package-internal test hook.
	onPartition func(p *partitioning) (reference bool)
	// onQuiet, when non-nil, is called for each node-quantum the engine is
	// about to fast-forward (DESIGN.md §7.1) — every node of a quiet quantum,
	// and the nodes and tight partitions a stepped quantum skips; returning
	// false sends the node through its walk anyway, together with the rest
	// of its quiet quantum or tight partition, which are stepped whole or not
	// at all (so the answers for one should agree). Package-internal test
	// hook.
	onQuiet func(qi, node int) bool
	// onStretch, when non-nil, is told the length k >= 1 of each quiet stretch
	// the engine executes as one pass (DESIGN.md §7.1). Package-internal test
	// probe; unlike the two hooks above it does not hold k to 1.
	onStretch func(k int)
}

// LookaheadMode is the type of the unread Config.Lookahead stub; it and its
// two values go with the field.
type LookaheadMode int

const (
	LookaheadMatrix LookaheadMode = iota
	LookaheadScalar
)

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := validateCluster(c.Nodes, c.Guest, c.Net, c.Policy, c.Program, c.Faults); err != nil {
		return err
	}
	return c.Host.Validate()
}

// validateCluster holds the checks Run and RunParallel share.
func validateCluster(nodes int, g guest.Config, net *netmodel.Model, policy func() quantum.Policy,
	program func(rank, size int) guest.Program, fp *faults.Plan) error {
	switch {
	case nodes < 1:
		return fmt.Errorf("cluster: need at least 1 node, got %d", nodes)
	case net == nil:
		return fmt.Errorf("cluster: nil network model")
	case policy == nil:
		return fmt.Errorf("cluster: nil quantum policy constructor")
	case program == nil:
		return fmt.Errorf("cluster: nil workload program constructor")
	case !(g.CPUHz > 0) || math.IsInf(g.CPUHz, 1): // !(x > 0) also catches NaN
		return fmt.Errorf("cluster: guest CPUHz must be positive and finite, got %v", g.CPUHz)
	case g.SendOverhead < 0:
		return fmt.Errorf("cluster: guest SendOverhead must not be negative, got %v", g.SendOverhead)
	case g.RecvOverhead < 0:
		return fmt.Errorf("cluster: guest RecvOverhead must not be negative, got %v", g.RecvOverhead)
	}
	if err := net.Validate(nodes); err != nil {
		return err
	}
	return fp.Validate()
}

// newNodes builds the guest nodes, rejecting a constructor that returns no
// program for some rank. A node starts nothing until it is first stepped, so
// the ones built before the failure need no shutdown.
func newNodes(nodes int, g guest.Config, program func(rank, size int) guest.Program) ([]*guest.Node, error) {
	ns := make([]*guest.Node, nodes)
	for i := range ns {
		prog := program(i, nodes)
		if prog == nil {
			return nil, fmt.Errorf("cluster: nil program for rank %d", i)
		}
		ns[i] = guest.NewNode(i, nodes, g, prog)
	}
	return ns, nil
}

// Stats aggregates what the controller observed during a run.
type Stats struct {
	// Quanta is the number of synchronization quanta executed.
	Quanta int
	// Packets is the number of frames routed by the controller.
	Packets int
	// Deliveries counts frame deliveries to destination nodes (a broadcast
	// contributes Nodes-1).
	Deliveries int
	// Exact counts deliveries scheduled at their precise simulated arrival
	// time (paper case 2).
	Exact int
	// Stragglers counts deliveries whose correct arrival time had already
	// passed on the destination (paper case 3).
	Stragglers int
	// QuantumSnaps counts stragglers that additionally had to wait for the
	// next quantum boundary (paper Figure 3(d)).
	QuantumSnaps int
	// StragglerDelay is the total guest time by which straggler deliveries
	// were late versus their ideal arrival.
	StragglerDelay simtime.Duration
	// Dropped counts frames discarded by loss injection — fault-plan loss
	// and link-down windows (zero on the paper's perfect switch).
	Dropped int
	// Duplicated counts extra frame copies injected by a fault plan's
	// duplication probability. Each copy is delivered and classified
	// independently, so Deliveries = Packets - Dropped - unroutable
	// + Duplicated.
	Duplicated int
	// HostBusy/HostIdle sum the host time the node simulators spent in
	// detailed execution and in idle fast-path across all nodes;
	// HostBarrier sums the per-quantum barrier costs. Together they show
	// where the paper's "synchronization overhead" (Figure 5) lives.
	HostBusy    simtime.Duration
	HostIdle    simtime.Duration
	HostBarrier simtime.Duration
	// MinQ/MaxQ/MeanQ summarize the quantum durations used.
	MinQ, MaxQ simtime.Duration
	MeanQ      simtime.Duration
	// SilentQuanta is the number of quanta that carried no packets (the
	// np==0 branch of Algorithm 1).
	SilentQuanta int
	// FastFullQuanta counts quanta where the whole cluster was fast-path
	// eligible (Q at or below every link's lookahead) and FastPartialQuanta
	// those where only part of it was: at least one lookahead partition
	// loose, at least one tight.
	// Eligibility state, not execution state.
	FastFullQuanta    int
	FastPartialQuanta int
	// FastNodeQuanta sums the fast-walkable node count over all quanta, so
	// FastNodeQuanta/(Nodes*Quanta) is the run's node-level engagement
	// fraction. PartialPartitions sums the partition counts over the
	// partially engaged quanta (the engaged partitions among them are the
	// loose singletons, one per fast node).
	FastNodeQuanta    int
	PartialPartitions int
}

// observeQuanta folds k quanta of one duration and one traffic count each
// into the aggregate. Shared by the deterministic engine and the parallel
// runner so the min/max/silent accounting cannot drift between them.
func (s *Stats) observeQuanta(k int, q simtime.Duration, packets int) {
	if q < s.MinQ || s.Quanta == 0 {
		s.MinQ = q
	}
	s.Quanta += k
	if q > s.MaxQ {
		s.MaxQ = q
	}
	if packets == 0 {
		s.SilentQuanta += k
	}
}

// finalize closes out the aggregate after the last quantum: MeanQ is derived
// from the running sum, and a run with no quanta keeps MinQ at zero rather
// than leaking a sentinel.
func (s *Stats) finalize(sumQ float64) {
	if s.Quanta == 0 {
		s.MinQ = 0
		return
	}
	s.MeanQ = simtime.Duration(sumQ / float64(s.Quanta))
}

// Result is the outcome of a run. Per-packet and per-quantum records are not
// part of it: an *obs.Recorder attached as Config.Observer keeps those.
type Result struct {
	// GuestTime is the guest time at which the last workload finished: the
	// cluster application's simulated wall-clock time.
	GuestTime simtime.Guest
	// HostTime is the modelled host time consumed to simulate the run —
	// the denominator of all the paper's speedups.
	HostTime simtime.Duration
	// NodeFinish holds each workload's guest finish time.
	NodeFinish []simtime.Guest
	// Metrics holds each node's reported application metrics.
	Metrics []map[string]float64
	// Stats aggregates controller observations.
	Stats Stats
	// PolicyName records the quantum policy used.
	PolicyName string
}

// Metric returns rank 0's reported value for name (the application-level
// result, by the convention described at Proc.Report), and whether it was
// reported.
func (r *Result) Metric(name string) (float64, bool) {
	if len(r.Metrics) == 0 {
		return 0, false
	}
	v, ok := r.Metrics[0][name]
	return v, ok
}
