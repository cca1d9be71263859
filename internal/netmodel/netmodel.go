// Package netmodel contains the timing models for the simulated network:
// the per-node NIC and the switch interconnecting the nodes.
//
// The paper splits network timing into exactly these two parts: "the timing
// of the NICs in each node, and the timing of the network switch connecting
// the nodes". The evaluation uses a deliberately aggressive configuration —
// a 10 GB/s NIC with 1 µs minimum latency, jumbo 9000-byte frames and a
// perfect (zero latency, infinite bandwidth) switch — chosen to maximize
// straggler pressure. That configuration is this package's default.
package netmodel

import (
	"fmt"
	"math"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// NICModel computes the latency contributed by the sending and receiving
// network interfaces for one frame.
//
// Serialization is separated from the fixed latencies because back-to-back
// frames from one node queue behind each other on the wire: the engine keeps
// a per-node transmit-complete time and charges each frame's serialization
// starting from it.
type NICModel interface {
	// Serialization is the wire occupancy of the frame at the link
	// bandwidth (zero for an infinitely fast link).
	Serialization(f *pkt.Frame) simtime.Duration
	// SendLatency is the fixed latency from the moment the last bit leaves
	// the node until the frame enters the switch (propagation + NIC
	// processing; the paper's "minimum latency of 1µs").
	SendLatency(f *pkt.Frame) simtime.Duration
	// RecvLatency is the fixed latency from the moment the frame leaves the
	// switch until the destination guest observes it.
	RecvLatency(f *pkt.Frame) simtime.Duration
}

// SwitchModel computes the latency contributed by the interconnect between
// the source and destination nodes.
type SwitchModel interface {
	// Latency is the interconnect traversal time for a frame from node src
	// to node dst. src and dst are node IDs.
	Latency(f *pkt.Frame, src, dst int) simtime.Duration
}

// OutputQueue models per-destination-port contention at the switch: each
// output port serializes the frames addressed to it at its own bandwidth,
// so simultaneous senders to one destination (incast) queue behind each
// other. Nil means the paper's contention-free perfect switch.
type OutputQueue struct {
	// BytesPerSecond is the output-port drain rate; zero means infinite.
	BytesPerSecond float64
	// Latency is a fixed per-frame port traversal cost.
	Latency simtime.Duration
}

// Serialization returns the port occupancy of one frame.
func (o *OutputQueue) Serialization(f *pkt.Frame) simtime.Duration {
	if o.BytesPerSecond <= 0 {
		return 0
	}
	return simtime.Duration(float64(f.WireBytes()) / o.BytesPerSecond * 1e9)
}

// Model bundles NIC and switch timing and answers the one question the
// synchronization layer needs: the end-to-end latency of a frame, and the
// minimum possible latency T of the network (the safety bound Q <= T).
type Model struct {
	NIC    NICModel
	Switch SwitchModel
	// Output, when non-nil, adds stateful per-destination port contention;
	// the engine keeps the port clocks.
	Output *OutputQueue
}

// FrameLatency returns the total guest-time latency of frame f from the send
// call on node src to delivery visibility on node dst, assuming an idle
// transmit queue (the engine adds queueing on top).
func (m *Model) FrameLatency(f *pkt.Frame, src, dst int) simtime.Duration {
	return m.NIC.Serialization(f) + m.PostTxLatency(f, src, dst)
}

// PostTxLatency returns the latency a frame experiences after its last bit
// has left the sending node: NIC fixed latency, switch traversal, the
// uncontended output-port cost (if modelled) and receive processing.
func (m *Model) PostTxLatency(f *pkt.Frame, src, dst int) simtime.Duration {
	l := m.PreQueueLatency(f, src, dst) + m.NIC.RecvLatency(f)
	if m.Output != nil {
		l += m.Output.Serialization(f) + m.Output.Latency
	}
	return l
}

// PreQueueLatency is the latency from the sender's last bit to the frame's
// arrival at the destination output port: NIC fixed latency plus switch
// traversal. Engines with an OutputQueue use it to compute when a frame
// starts competing for the port.
func (m *Model) PreQueueLatency(f *pkt.Frame, src, dst int) simtime.Duration {
	return m.NIC.SendLatency(f) + m.Switch.Latency(f, src, dst)
}

// PostQueueLatency is the latency from the moment a frame finishes draining
// through the output port to guest visibility at the destination.
func (m *Model) PostQueueLatency(f *pkt.Frame) simtime.Duration {
	l := m.NIC.RecvLatency(f)
	if m.Output != nil {
		l += m.Output.Latency
	}
	return l
}

// minProbe is the shared size-0 probe frame. Latency models only ever read
// a frame, so one immutable instance serves every probe without allocating
// (the per-run probe in the engine's initFast used to cost one heap frame).
var minProbe pkt.Frame

// MinProbe returns the cheapest possible frame: Size 0. Serialization
// models are monotonic in wire size, so a size-0 probe lower-bounds every
// real frame: the one probe behind every lookahead bound.
//
// The returned frame is shared; callers must treat it as read-only.
func MinProbe() *pkt.Frame { return &minProbe }

// LookaheadMatrix returns the per-pair lower-bound latency matrix for the
// given node count, probed with MinProbe: entry [src*nodes+dst] (row-major)
// is a latency no frame from src to dst can beat. Diagonal entries are zero.
// Its smallest off-diagonal entry is the paper's T — a quantum Q <= T
// guarantees that no straggler can occur — and the per-pair values let the
// engine treat a quantum as safe for a node pair whose mutual latency is at
// least Q even when some other pair's is not (the per-link lookahead of
// DESIGN.md §11).
//
// An entry includes the uncontended Output port cost when an OutputQueue is
// modelled; under contention real frames can only be slower, so it stays a
// true lower bound.
func (m *Model) LookaheadMatrix(nodes int) []simtime.Duration {
	if nodes < 1 {
		return nil
	}
	probe := MinProbe()
	lat := make([]simtime.Duration, nodes*nodes)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			lat[s*nodes+d] = m.FrameLatency(probe, s, d)
		}
	}
	return lat
}

// SimpleNIC is the paper's NIC model: a fixed base latency plus wire
// serialization at the link bandwidth.
type SimpleNIC struct {
	// BaseLatency is the fixed processing latency applied on the send side
	// (the paper's "minimum latency of 1µs").
	BaseLatency simtime.Duration
	// BytesPerSecond is the link bandwidth used for serialization delay.
	// Zero means infinite bandwidth.
	BytesPerSecond float64
	// RecvOverhead is the fixed receive-side processing latency.
	RecvOverhead simtime.Duration
}

// Serialization implements NICModel.
func (n *SimpleNIC) Serialization(f *pkt.Frame) simtime.Duration {
	if n.BytesPerSecond <= 0 {
		return 0
	}
	return simtime.Duration(float64(f.WireBytes()) / n.BytesPerSecond * 1e9)
}

// SendLatency implements NICModel.
func (n *SimpleNIC) SendLatency(f *pkt.Frame) simtime.Duration { return n.BaseLatency }

// RecvLatency implements NICModel.
func (n *SimpleNIC) RecvLatency(f *pkt.Frame) simtime.Duration { return n.RecvOverhead }

// PerfectSwitch is the paper's switch: infinite bandwidth, zero latency.
type PerfectSwitch struct{}

// Latency implements SwitchModel.
func (PerfectSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration { return 0 }

// StoreAndForwardSwitch models a single switch that must receive the full
// frame before forwarding it, plus a fixed port-to-port latency.
type StoreAndForwardSwitch struct {
	PortLatency    simtime.Duration
	BytesPerSecond float64
}

// Latency implements SwitchModel.
func (s *StoreAndForwardSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	l := s.PortLatency
	if s.BytesPerSecond > 0 {
		l += simtime.Duration(float64(f.WireBytes()) / s.BytesPerSecond * 1e9)
	}
	return l
}

// MatrixSwitch models an arbitrary topology via a per-pair latency matrix,
// e.g. a multi-stage fabric where distant nodes pay more hops.
type MatrixSwitch struct {
	// Lat[src][dst] is the interconnect latency between the pair. The
	// matrix must be square and cover every node ID in use.
	Lat [][]simtime.Duration
}

// Latency implements SwitchModel.
func (s *MatrixSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	return s.Lat[src][dst]
}

// FatTreeSwitch approximates a two-level fat-tree: nodes within the same
// edge switch of Radix ports pay EdgeLatency, others pay EdgeLatency +
// CoreLatency for the extra hops.
type FatTreeSwitch struct {
	Radix       int
	EdgeLatency simtime.Duration
	CoreLatency simtime.Duration
}

// Latency implements SwitchModel.
func (s *FatTreeSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	if s.Radix > 0 && src/s.Radix == dst/s.Radix {
		return s.EdgeLatency
	}
	return s.EdgeLatency + s.CoreLatency
}

// Paper returns the evaluation configuration of the paper: 10 GB/s NIC,
// 1 µs minimum latency, perfect switch.
func Paper() *Model {
	return &Model{
		NIC: &SimpleNIC{
			BaseLatency:    1 * simtime.Microsecond,
			BytesPerSecond: 10e9, // the paper's "10GB/s" NIC
		},
		Switch: PerfectSwitch{},
	}
}

// Validate reports configuration errors that would silently corrupt timing:
// a missing model, a latency matrix smaller than the cluster, a bandwidth that
// is NaN, infinite or negative (zero means infinite), a negative latency.
func (m *Model) Validate(nodes int) error {
	if m.NIC == nil {
		return fmt.Errorf("netmodel: nil NIC model")
	}
	if m.Switch == nil {
		return fmt.Errorf("netmodel: nil switch model")
	}
	var err error
	rate := func(what string, bps float64) {
		if err == nil && (!(bps >= 0) || math.IsInf(bps, 1)) {
			err = fmt.Errorf("netmodel: %s %v bytes/s: want a finite, non-negative bandwidth (0 = infinite)", what, bps)
		}
	}
	latency := func(what string, d simtime.Duration) {
		if err == nil && d < 0 {
			err = fmt.Errorf("netmodel: %s %v is negative", what, d)
		}
	}
	if o := m.Output; o != nil {
		rate("output queue bandwidth", o.BytesPerSecond)
		latency("output queue latency", o.Latency)
	}
	if nic, ok := m.NIC.(*SimpleNIC); ok {
		rate("NIC bandwidth", nic.BytesPerSecond)
		latency("NIC base latency", nic.BaseLatency)
		latency("NIC receive overhead", nic.RecvOverhead)
	}
	switch sw := m.Switch.(type) {
	case *StoreAndForwardSwitch:
		rate("switch bandwidth", sw.BytesPerSecond)
		latency("switch port latency", sw.PortLatency)
	case *FatTreeSwitch:
		latency("fat-tree edge latency", sw.EdgeLatency)
		latency("fat-tree core latency", sw.CoreLatency)
	case *MatrixSwitch:
		if len(sw.Lat) < nodes {
			return fmt.Errorf("netmodel: latency matrix covers %d nodes, need %d", len(sw.Lat), nodes)
		}
		for i, row := range sw.Lat[:nodes] {
			if len(row) < nodes {
				return fmt.Errorf("netmodel: latency matrix row %d covers %d nodes, need %d", i, len(row), nodes)
			}
			for j, d := range row[:nodes] {
				latency(fmt.Sprintf("latency matrix entry [%d][%d]", i, j), d)
			}
		}
	}
	return err
}
