// Package obs is the streaming observability layer of the simulator: a set
// of lifecycle hooks (Observer) that both engines fire as a run unfolds,
// plus four bundled implementations — a Chrome trace-event exporter
// (chrometrace.go), a metrics registry with an HTTP endpoint (registry.go),
// a live progress reporter for long runs (progress.go), and the Recorder
// below, which keeps the packet and quantum records for reading back after
// the run.
//
// Hooks stream *while the run executes*; they are the engine's only record
// output. The deterministic engine fires them single-threaded in a
// replayable order; the wall-clock parallel runner fires them from multiple
// goroutines, so every Observer bundled here is safe for concurrent use.
package obs

import (
	"clustersim/internal/simtime"
)

// Phase classifies what a node segment spent its host time on.
type Phase int

const (
	// PhaseBusy is detailed execution of workload/protocol code.
	PhaseBusy Phase = iota
	// PhaseIdle is the fast-pathed simulation of a blocked guest.
	PhaseIdle
	// PhaseDone marks the instant a node's workload finished.
	PhaseDone
)

// String returns the phase name used in traces and metrics.
func (p Phase) String() string {
	switch p {
	case PhaseBusy:
		return "busy"
	case PhaseIdle:
		return "idle"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// RunInfo describes a run as it starts.
type RunInfo struct {
	// Nodes is the simulated cluster size.
	Nodes int
	// Policy names the quantum policy driving the run.
	Policy string
	// Parallel is true for the wall-clock goroutine runner, false for the
	// deterministic engine.
	Parallel bool
	// MaxGuest is the configured guest-time backstop (zero if unlimited).
	MaxGuest simtime.Guest
	// Lookahead is the smallest per-link lookahead: the minimum frame latency
	// over all node pairs, zero when the configuration rules lookahead out (a
	// zero-latency link, a one-node cluster, or OutputQueue). A quantum
	// Q <= Lookahead leaves every node loose and is FastEligible.
	Lookahead simtime.Duration
	// OutputQueue is true when the net model has an output-queued switch
	// (Net.Output), which rules lookahead out for every quantum.
	OutputQueue bool
	// LinkLat probes the static lower-bound frame latency of a directed link,
	// for sinks that rank the links gating Lookahead.
	LinkLat func(src, dst int) simtime.Duration
}

// RunSummary describes a run as it ends. Every run that reached RunStart
// reaches RunEnd exactly once, aborted ones included.
type RunSummary struct {
	// Err is nil for a run that completed, and otherwise why it did not: the
	// guest-time limit, a policy that issued a non-positive quantum, or a
	// workload error. The rest then covers the quanta that did run.
	Err error
	// GuestTime is the guest time at which the last workload finished, or at
	// which the runner gave the run up.
	GuestTime simtime.Guest
	// HostEnd is the host clock at the end of the run.
	HostEnd simtime.Host
	// Quanta is the number of synchronization quanta the run executed.
	Quanta int
	// QuietQuanta counts quanta the deterministic engine fast-forwarded
	// because no node could act before the limit (DESIGN.md §7.1). Which path
	// executes a quantum never changes a result, so the count lives here and
	// not in Stats, QuantumRecord or the fingerprint. Zero for the parallel
	// runner.
	QuietQuanta int
	// QuietNodeQuanta counts the node-quanta fast-forwarded the same way:
	// every node of a quiet quantum, plus the nodes and lookahead partitions
	// that a stepped quantum skipped because they could not act in it.
	QuietNodeQuanta int
}

// QuantumRecord describes one completed synchronization quantum.
type QuantumRecord struct {
	Index      int
	Start      simtime.Guest    // guest time at quantum start
	Q          simtime.Duration // quantum duration
	Packets    int              // frames routed during the quantum
	Stragglers int
	HostStart  simtime.Host // barrier release that started the quantum
	// BarrierStart opens the quantum's synchronization span, which HostEnd
	// closes. The deterministic engine reports the host time the last node
	// or late frame reached the barrier, so a node's barrier wait is
	// BarrierStart minus the end of its last phase (HostStart if it had
	// none). The parallel runner reports the first arrival — the whole span
	// somebody stood waiting — and a node's wait there runs to HostEnd.
	BarrierStart simtime.Host
	HostEnd      simtime.Host // barrier release that ended the quantum
	// Routing is the controller's per-packet share of the span (Packets x
	// PacketHostCost in the deterministic engine, zero in the parallel
	// runner, whose routing happens inside the quantum); the rest,
	// HostEnd - BarrierStart - Routing, is the barrier itself.
	Routing simtime.Duration
	// FastEligible reports whether the quantum's lookahead partitioning left
	// every node loose (Partitioning.FastNodes equals the cluster size).
	FastEligible bool
}

// PacketRecord describes one frame delivery.
type PacketRecord struct {
	SendGuest simtime.Guest // guest time the source handed it to the NIC
	Ideal     simtime.Guest // exact simulated arrival time, injected delay included
	// Latency is the link's share of Ideal - SendGuest: what the network model
	// charges the frame before fault injection adds jitter. Lookahead bounds
	// are about this value.
	Latency   simtime.Duration
	Arrival   simtime.Guest // guest time actually delivered (zero if Dropped)
	Src, Dst  int
	Size      int
	Straggler bool
	Snapped   bool // queued to the next quantum boundary
	Dropped   bool // discarded by fault injection; never delivered
	Duplicate bool // fault-injected extra copy of an already-delivered frame
}

// Link is a directed link and its static lower-bound latency.
type Link struct {
	Src, Dst int
	Latency  simtime.Duration
}

// Partitioning is the lookahead closure of the cluster at one quantum size:
// the connected components of the links a frame could cross inside the
// quantum (DESIGN.md §11). Components are the engine's unit of execution — a
// singleton is loose and walked directly, a multi-node partition is tight and
// walks through the event queue — and a sink's unit of barrier participation.
type Partitioning struct {
	// Part maps node -> partition id. Ids are dense and canonical: they
	// number the partitions by their smallest member node.
	Part []int32
	// Partitions is the partition count, TightPartitions the multi-node ones
	// among them, FastNodes the loose singletons.
	Partitions      int
	TightPartitions int
	FastNodes       int
	// MaxTightLat is the largest tight-link latency, zero when there are no
	// tight links. The tight-link set is exactly the links with latency <=
	// MaxTightLat, so the value identifies the structure.
	MaxTightLat simtime.Duration
	// TightLinks ranks the directed tight links ascending by latency then
	// (src, dst), truncated; TightLinkCount is the full count.
	TightLinks     []Link
	TightLinkCount int64
}

// Observer receives lifecycle hooks from a running engine. A nil Observer in
// a config disables all hooks at zero cost: the engines guard every call
// site with a nil check and build no records.
//
// The deterministic engine calls hooks from a single goroutine in a
// deterministic order; the parallel runner calls NodePhase concurrently from
// node goroutines, so implementations must be safe for concurrent use.
// Hooks run on the engine's critical path — expensive sinks should buffer.
type Observer interface {
	// RunStart fires once before the first quantum.
	RunStart(RunInfo)
	// RunEnd fires once after the last quantum, however the run ended.
	RunEnd(RunSummary)
	// QuantumStart fires when the barrier releases quantum index, which
	// covers guest time (start, start+q]: an event exactly at start+q belongs
	// to this quantum, one exactly at start to the previous.
	QuantumStart(index int, start simtime.Guest, q simtime.Duration, hostStart simtime.Host)
	// QuantumPartition follows QuantumStart with the quantum's lookahead
	// partitioning, in runs that have a per-link lookahead matrix (not under
	// an output-queued switch, a zero-latency link or a one-node cluster). p is shared by every quantum of the same structure
	// and must not be modified.
	QuantumPartition(index int, p *Partitioning)
	// QuantumEnd fires when the quantum's closing barrier completes.
	QuantumEnd(QuantumRecord)
	// Packet fires for every frame delivery the controller routes.
	Packet(PacketRecord)
	// NodePhase fires when a node segment's extent is known: the node spent
	// host time [hFrom, hTo] advancing its guest clock from gFrom to gTo in
	// the given phase. PhaseDone is an instant (gFrom==gTo, hFrom==hTo).
	NodePhase(node int, phase Phase, gFrom, gTo simtime.Guest, hFrom, hTo simtime.Host)
}

// Base is a no-op Observer for embedding: override only the hooks you need.
type Base struct{}

// RunStart implements Observer.
func (Base) RunStart(RunInfo) {}

// RunEnd implements Observer.
func (Base) RunEnd(RunSummary) {}

// QuantumStart implements Observer.
func (Base) QuantumStart(int, simtime.Guest, simtime.Duration, simtime.Host) {}

// QuantumPartition implements Observer.
func (Base) QuantumPartition(int, *Partitioning) {}

// QuantumEnd implements Observer.
func (Base) QuantumEnd(QuantumRecord) {}

// Packet implements Observer.
func (Base) Packet(PacketRecord) {}

// NodePhase implements Observer.
func (Base) NodePhase(int, Phase, simtime.Guest, simtime.Guest, simtime.Host, simtime.Host) {}

// Recorder is the recording sink: it keeps the Packet and QuantumEnd records
// of the run it observes, in stream order, for whatever reads a run back once
// it is over — the Figure 9 charts (internal/trace), the oracle ablation, the
// canonical fingerprint (cluster.CanonicalResult). It needs no lock: both
// runners fire those two hooks from one goroutine at a time (the engine's own;
// the holder of the parallel runner's controller mutex), and NodePhase, which
// node goroutines fire concurrently, stays Base's no-op.
type Recorder struct {
	Base
	Packets []PacketRecord
	Quanta  []QuantumRecord
}

// Packet and QuantumEnd implement Observer.
func (r *Recorder) Packet(rec PacketRecord)      { r.Packets = append(r.Packets, rec) }
func (r *Recorder) QuantumEnd(rec QuantumRecord) { r.Quanta = append(r.Quanta, rec) }

// multi fans hooks out to several observers in order.
type multi []Observer

// Multi combines observers into one that invokes each in order. Nil entries
// are dropped; Multi() and Multi(nil...) return nil, so callers can always
// pass the result straight into a config.
func Multi(os ...Observer) Observer {
	var ms multi
	for _, o := range os {
		if o != nil {
			ms = append(ms, o)
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return ms[0]
	}
	return ms
}

func (m multi) RunStart(info RunInfo) {
	for _, o := range m {
		o.RunStart(info)
	}
}

func (m multi) RunEnd(sum RunSummary) {
	for _, o := range m {
		o.RunEnd(sum)
	}
}

func (m multi) QuantumStart(index int, start simtime.Guest, q simtime.Duration, hostStart simtime.Host) {
	for _, o := range m {
		o.QuantumStart(index, start, q, hostStart)
	}
}

func (m multi) QuantumPartition(index int, p *Partitioning) {
	for _, o := range m {
		o.QuantumPartition(index, p)
	}
}

func (m multi) QuantumEnd(rec QuantumRecord) {
	for _, o := range m {
		o.QuantumEnd(rec)
	}
}

func (m multi) Packet(rec PacketRecord) {
	for _, o := range m {
		o.Packet(rec)
	}
}

func (m multi) NodePhase(node int, phase Phase, gFrom, gTo simtime.Guest, hFrom, hTo simtime.Host) {
	for _, o := range m {
		o.NodePhase(node, phase, gFrom, gTo, hFrom, hTo)
	}
}
