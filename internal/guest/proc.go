package guest

import (
	"fmt"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// Proc is the API a workload program uses to interact with its node. All
// methods must be called only from the workload's own goroutine (the one the
// node started for its Program).
type Proc struct {
	n *Node
}

// Rank returns this node's ID within the cluster (0-based).
func (p *Proc) Rank() int { return p.n.id }

// Size returns the number of nodes in the cluster.
func (p *Proc) Size() int { return p.n.size }

// Now returns the node's current guest time.
func (p *Proc) Now() simtime.Guest { return p.n.clock }

// Config returns the node's guest configuration.
func (p *Proc) Config() Config { return p.n.cfg }

// Resumes returns how many times the node has switched into this workload so
// far — the cost frame trains and sinks exist to avoid, which tests and
// benchmarks hold per frame.
func (p *Proc) Resumes() int { return p.n.resumes }

// Compute executes d of guest CPU time.
func (p *Proc) Compute(d simtime.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("guest: Compute(%v) with negative duration", d))
	}
	if d == 0 {
		return
	}
	p.n.call(request{kind: opCompute, dur: d})
}

// Send hands a frame of size payload bytes to the NIC, addressed to node
// dst. It costs the configured per-frame send overhead of guest CPU time and
// returns once the frame has been queued (the NIC transmits asynchronously).
func (p *Proc) Send(dst int, proto pkt.Proto, size int, data []byte) {
	p.n.send(p.n.newFrame(pkt.NodeMAC(dst), proto, size, data), nil, 1)
}

// Broadcast sends a frame to every other node via the link-layer broadcast
// address.
func (p *Proc) Broadcast(proto pkt.Proto, size int, data []byte) {
	p.n.send(p.n.newFrame(pkt.Broadcast, proto, size, data), nil, 1)
}

// SendTrain sends count frames back to back, each built by src when its
// predecessor has left and each costing the per-frame send overhead: what
// count Send calls would do, in one switch to the node instead of count.
func (p *Proc) SendTrain(src FrameSource, count int) {
	if count < 1 {
		panic(fmt.Sprintf("guest: SendTrain of %d frames", count))
	}
	p.n.send(p.n.pull(src, 0), src, count)
}

// Recv blocks until the next frame is visible to the guest and returns it
// together with its guest arrival time. Frames are delivered in arrival
// order regardless of sender.
func (p *Proc) Recv() Arrival {
	a, ok := p.RecvSink(simtime.GuestInfinity, nil)
	if !ok {
		panic("guest: Recv returned without an arrival")
	}
	return a
}

// RecvDeadline blocks until a frame is visible or the guest clock reaches
// deadline, whichever comes first. ok reports whether a frame was received.
func (p *Proc) RecvDeadline(deadline simtime.Guest) (a Arrival, ok bool) {
	return p.RecvSink(deadline, nil)
}

// RecvSink is RecvDeadline with every received frame offered to sink first:
// the call returns the first frame the sink declines, or !ok at the deadline,
// and frames the sink absorbs cost their receive overhead but no switch to
// the workload. A nil sink declines everything.
func (p *Proc) RecvSink(deadline simtime.Guest, sink FrameSink) (a Arrival, ok bool) {
	p.n.sink = sink
	r := p.n.call(request{kind: opRecv, deadline: deadline})
	return r.arrival, r.hasArr
}

// TryRecv returns a frame if one is already visible, without blocking
// (beyond the receive CPU overhead when a frame is consumed).
func (p *Proc) TryRecv() (a Arrival, ok bool) {
	return p.RecvDeadline(p.n.clock)
}

// Sleep idles the guest for d.
func (p *Proc) Sleep(d simtime.Duration) {
	if d <= 0 {
		return
	}
	p.n.call(request{kind: opSleep, deadline: p.n.clock.Add(d)})
}

// SleepUntil idles the guest until the absolute time t (no-op if already
// past).
func (p *Proc) SleepUntil(t simtime.Guest) {
	if t <= p.n.clock {
		return
	}
	p.n.call(request{kind: opSleep, deadline: t})
}

// Report records a named application metric (e.g. "mops", "walltime_s") on
// this node. The experiment harness reads metrics after the run; by
// convention rank 0 reports the application-level result, mirroring how the
// paper reads the benchmark's self-reported numbers.
func (p *Proc) Report(name string, value float64) {
	p.n.metrics[name] = value
}
