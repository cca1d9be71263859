// Package clustersim is a cluster simulator with adaptive quantum
// synchronization, reproducing Falcón, Faraboschi and Ortega, "An Adaptive
// Synchronization Technique for Parallel Simulation of Networked Clusters"
// (ISPASS 2008).
//
// It couples N simulated full-system nodes through a central network
// controller that synchronizes their clocks in lock-step quanta. The
// quantum policy is pluggable:
//
//   - FixedQuantum(q): classical conservative lock-step. With q <= T (the
//     minimum network latency) the simulation is deterministic ground truth;
//     larger q trades accuracy for speed.
//   - AdaptiveQuantum(min, max, inc, dec): the paper's Algorithm 1 — grow
//     the quantum while the network is silent, collapse it on traffic.
//
// Workload programs are ordinary Go functions written against the guest
// process API (Compute / Send / Recv) or the bundled MPI-like library;
// ready-made models of the paper's benchmarks (NAS EP/IS/CG/MG/LU, NAMD)
// live in internal/workloads and are re-exported through the experiments
// helpers.
//
// Minimal use:
//
//	cfg := clustersim.NewConfig(8, myProgram)
//	cfg.Policy = clustersim.AdaptiveQuantum(
//	    1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)
//	res, err := clustersim.Run(cfg)
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package clustersim

import (
	"io"
	"time"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// Re-exported time types; all simulator times are nanosecond counts.
type (
	// GuestTime is a point in simulated (guest) time.
	GuestTime = simtime.Guest
	// HostTime is a point in (modelled) host time.
	HostTime = simtime.Host
	// Duration is a span of time in either domain.
	Duration = simtime.Duration
)

// Common duration units.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Core run types.
type (
	// Config describes one simulation run; see NewConfig.
	Config = cluster.Config
	// Result is a run's outcome: guest/host times, metrics, stats.
	Result = cluster.Result
	// Stats aggregates controller observations (packets, stragglers,
	// quantum statistics).
	Stats = cluster.Stats
	// Proc is the API workload programs use on their node.
	Proc = guest.Proc
	// Program is a per-rank workload function.
	Program = guest.Program
	// GuestConfig holds per-node guest CPU/NIC software parameters.
	GuestConfig = guest.Config

	// HostParams models the machine executing the simulators.
	HostParams = host.Params
	// NetModel is the network timing model (NIC + switch).
	NetModel = netmodel.Model

	// QuantumPolicy chooses each synchronization quantum.
	QuantumPolicy = quantum.Policy
	// PolicyFeedback is the traffic observation fed to a policy.
	PolicyFeedback = quantum.Feedback
)

// Observability: streaming hooks fired while a run executes (set
// Config.Observer or ParallelConfig.Observer; nil = no hooks, zero cost).
type (
	// Observer receives lifecycle hooks from a running engine.
	Observer = obs.Observer
	// ObserverBase is a no-op Observer for embedding.
	ObserverBase = obs.Base
	// RunInfo and RunSummary describe a run to RunStart/RunEnd hooks.
	RunInfo    = obs.RunInfo
	RunSummary = obs.RunSummary
	// QuantumRecord and PacketRecord are what the QuantumEnd and Packet
	// hooks deliver.
	QuantumRecord = obs.QuantumRecord
	PacketRecord  = obs.PacketRecord
	// Recorder is the sink that keeps both, in stream order, for reading back
	// after the run: rec := &clustersim.Recorder{}; cfg.Observer = rec; then
	// rec.Packets / rec.Quanta feed internal/trace's charts.
	Recorder = obs.Recorder
	// NodePhase classifies a node segment (busy / idle / done).
	NodePhase = obs.Phase
	// ChromeTracer streams Chrome trace-event JSON (chrome://tracing,
	// Perfetto).
	ChromeTracer = obs.ChromeTracer
	// MetricsRegistry accumulates live counters/gauges/histograms and
	// serves them over HTTP.
	MetricsRegistry = obs.Registry
	// ProgressReporter prints periodic run progress.
	ProgressReporter = obs.Progress
)

// Node phase values for NodePhase hooks.
const (
	PhaseBusy = obs.PhaseBusy
	PhaseIdle = obs.PhaseIdle
	PhaseDone = obs.PhaseDone
)

// MultiObserver combines observers into one; nil entries are dropped.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// NewChromeTracer returns an Observer streaming Chrome trace-event JSON to w.
func NewChromeTracer(w io.Writer) *ChromeTracer { return obs.NewChromeTracer(w) }

// NewMetricsRegistry returns an empty live-metrics registry Observer.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewProgressReporter returns an Observer reporting progress to w at most
// every interval (<=0 uses a 500ms default); target is the guest time
// treated as 100% (0 if unknown).
func NewProgressReporter(w io.Writer, target GuestTime, interval time.Duration) *ProgressReporter {
	return obs.NewProgress(w, target, interval)
}

// ServeMetrics exposes a registry on an HTTP address (e.g. "localhost:6060"
// or ":0") and returns the running server.
func ServeMetrics(addr string, reg *MetricsRegistry) (*obs.MetricsServer, error) {
	return obs.Serve(addr, reg)
}

// ParallelConfig and ParallelResult configure the wall-clock goroutine
// runner (see RunParallel).
type (
	ParallelConfig = cluster.ParallelConfig
	ParallelResult = cluster.ParallelResult
)

// Run executes one cluster simulation.
func Run(cfg Config) (*Result, error) { return cluster.Run(cfg) }

// RunParallel executes a configuration with real goroutine parallelism and
// wall-clock timing.
func RunParallel(cfg ParallelConfig) (*ParallelResult, error) { return cluster.RunParallel(cfg) }

// NewConfig returns a ready-to-run configuration for nodes ranks of
// program, with the paper's evaluation defaults: 2.6 GHz guests, a 10 GB/s
// 1 µs-latency NIC with jumbo frames, a perfect switch, the calibrated host
// model, and ground-truth (Q = 1µs) synchronization.
func NewConfig(nodes int, program func(rank, size int) Program) Config {
	return Config{
		Nodes:    nodes,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   FixedQuantum(1 * Microsecond),
		Program:  program,
		MaxGuest: GuestTime(600 * Second),
	}
}

// FixedQuantum returns a constant-quantum policy constructor.
func FixedQuantum(q Duration) func() QuantumPolicy {
	return func() QuantumPolicy { return quantum.Fixed{Q: q} }
}

// AdaptiveQuantum returns the paper's Algorithm 1 policy constructor: the
// quantum starts at min, multiplies by inc after every packet-free quantum,
// by dec after every quantum that carried traffic, clamped to [min, max].
func AdaptiveQuantum(min, max Duration, inc, dec float64) func() QuantumPolicy {
	return func() QuantumPolicy { return quantum.NewAdaptive(min, max, inc, dec) }
}

// RecommendedDec returns the paper's suggested decrease factor
// (≈ 1/sqrt(max/min)) for a quantum range.
func RecommendedDec(min, max Duration) float64 { return quantum.RecommendedDec(min, max) }

// PaperNetwork returns the evaluation network of the paper: 10 GB/s NIC,
// 1 µs minimum latency, perfect switch, jumbo frames.
func PaperNetwork() *NetModel { return netmodel.Paper() }

// DefaultHost returns the calibrated host-execution model.
func DefaultHost() HostParams { return host.DefaultParams() }

// DefaultGuest returns the default guest node configuration.
func DefaultGuest() GuestConfig { return guest.DefaultConfig() }
