// Package guest models one simulated cluster node: a guest machine executing
// a workload program against a guest clock and a NIC.
//
// In the paper each node is a full x86 system under AMD SimNow; here a node
// executes a *workload program* — ordinary Go code written against the Proc
// API (Compute, Send, Recv, Sleep) — on its own coroutine (iter.Pull). The
// node and the workload run strictly hand-over-hand (exactly one of them is
// ever active; every switch is an explicit resume, never a scheduler
// round-trip), so execution is deterministic and the co-simulation engine
// observes the node as a sequential state machine:
//
//	Step() → "I computed [a,b)" | "I sent a frame" | "I am blocked" |
//	         "I reached the quantum limit" | "I finished"
//
// A switch to the workload is the expensive part of a step, so a request may
// stay pending across many of them: a send carries a whole frame train (a
// FrameSource the node pulls frame after frame, one "I sent a frame" each)
// and a receive may carry a FrameSink the node offers each arrival to, and
// the workload is resumed only once the train is out or the sink declines a
// frame. Both run between steps, on the stepper's stack, and may not consume
// guest time.
//
// A node has one owner: every method, Deliver included, is called by whichever
// goroutine steps it, and the package takes no lock. A runner that routes
// frames from other goroutines hands them to the owner, which delivers them.
//
// The engine owns all host-time accounting; this package is purely in the
// guest clock domain.
package guest

import (
	"fmt"
	"iter"

	"clustersim/internal/eventq"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// Config holds the per-node guest timing parameters.
type Config struct {
	// SendOverhead is the guest CPU time consumed to push one frame through
	// the guest network stack and NIC driver.
	SendOverhead simtime.Duration
	// RecvOverhead is the guest CPU time consumed to receive one frame.
	RecvOverhead simtime.Duration
}

// DefaultConfig gives the paper's nodes (2.6 GHz Opterons) a TCP-era
// per-frame software cost well under the 1 µs wire latency.
func DefaultConfig() Config {
	return Config{
		SendOverhead: 700 * simtime.Nanosecond,
		RecvOverhead: 700 * simtime.Nanosecond,
	}
}

// Program is a workload executed on a node. It runs on its own goroutine and
// must use only the Proc API to interact with time and the network.
type Program func(p *Proc) error

// Arrival is a frame as observed by the guest: the frame plus the guest time
// at which the node's NIC made it visible.
type Arrival struct {
	Frame *pkt.Frame
	Time  simtime.Guest
}

// StepKind classifies what a node did during one Step call.
type StepKind int

// Step kinds returned by Node.Step.
const (
	// StepBusy: the node executed guest code for [From, To). Call Step
	// again once the engine has accounted the host time.
	StepBusy StepKind = iota
	// StepSend: the node handed Frame to its NIC at guest time To.
	StepSend
	// StepBlocked: the node is waiting for a frame (or sleeping) at guest
	// time To. NextArrival is the earliest queued-but-future arrival
	// (GuestInfinity if none); Deadline is the recv deadline or sleep
	// target (GuestInfinity if none). The engine must WakeAt the earliest
	// relevant guest time.
	StepBlocked
	// StepLimit: the node's clock reached the quantum limit.
	StepLimit
	// StepDone: the workload finished (possibly with Err).
	StepDone
)

func (k StepKind) String() string {
	switch k {
	case StepBusy:
		return "busy"
	case StepSend:
		return "send"
	case StepBlocked:
		return "blocked"
	case StepLimit:
		return "limit"
	case StepDone:
		return "done"
	default:
		return fmt.Sprintf("StepKind(%d)", int(k))
	}
}

// Step describes one observable step of a node's execution. Node.Step returns
// the node's own record, valid until its next Step.
type Step struct {
	Kind        StepKind
	From, To    simtime.Guest
	Frame       *pkt.Frame    // StepSend only
	NextArrival simtime.Guest // StepBlocked only
	Deadline    simtime.Guest // StepBlocked only
	Err         error         // StepDone only
}

type opKind int

const (
	opCompute opKind = iota
	opSend
	opRecv
	opSleep
	opDone
)

func (k opKind) String() string {
	return [...]string{"Compute", "Send", "Recv", "Sleep", "done"}[k]
}

// FrameSource supplies the frames of a train (Proc.SendTrain). The node calls
// Frame(k) once for each k in [0, count), in order, at the moment frame k-1
// has been handed to the NIC — frame 0 inside SendTrain itself — and charges
// the send overhead before emitting what it returned.
//
// Frame runs between steps, not on the workload's coroutine: it may read and
// update workload state and call Proc.Now, Rank, Size, Config and Report, but
// any Proc call that consumes guest time (Compute, Send, Recv*, Sleep*)
// panics.
type FrameSource interface {
	Frame(k int) (dst int, proto pkt.Proto, size int, data []byte)
}

// FrameSink is offered every frame a Proc.RecvSink call receives, after its
// receive overhead has been charged. Absorb returning true consumes the frame
// and the call keeps waiting under the same deadline, exactly as if the
// workload had called RecvSink again at once; false completes the call with
// that frame. The restrictions of FrameSource.Frame apply.
type FrameSink interface {
	Absorb(a Arrival) bool
}

type request struct {
	kind     opKind
	dur      simtime.Duration // compute
	frame    *pkt.Frame       // send: the frame the owed overhead is for
	deadline simtime.Guest    // recv deadline / sleep target (absolute)
	err      error            // done
}

type reply struct {
	arrival Arrival // recv result (valid iff hasArr)
	hasArr  bool
}

// Node is one simulated cluster node.
//
// A node has a single owner, the goroutine that steps it: Step, WakeAt,
// BeginQuantum, Deliver and Clock all touch plain fields, with no lock and no
// atomic. Ownership may move between goroutines only across a happens-before
// edge (the parallel runner's barrier and channel handoffs).
//
// The workload runs as a coroutine (iter.Pull): next resumes it until its
// next request, yield suspends it until the engine resumes it with a staged
// reply. Both directions are direct coroutine switches — no goroutine
// parking, no scheduler — and all request/reply state lives in the Node by
// value (a train's source and a receive's sink are interface values the
// workload already owns, staged beside the request so that it stays small
// to hand over), so the steady-state Step loop allocates nothing but the
// frame blocks outgoing frames are carved from.
type Node struct {
	id   int
	size int
	cfg  Config

	clock simtime.Guest
	limit simtime.Guest
	// st is the record Step fills and returns: the engine reads it in place,
	// so a step costs no 64-byte copy through the stack.
	st Step

	rx      eventq.Queue[*pkt.Frame]
	frameID uint64
	// frameBlk is the tail of the current frame block: outgoing frames are
	// carved from batch-allocated arrays instead of allocated one by one.
	// Frames are never recycled — a block is garbage-collected as a whole
	// once every frame carved from it has been dropped — so pointer
	// identity and immutability are exactly as with individual allocations.
	// Touched only by newFrame (like frameID), on whichever side of the
	// handshake is active.
	frameBlk []pkt.Frame

	// Coroutine handshake. next/stop drive the workload; yield (captured at
	// coroutine start) hands a request to the engine from inside call. reply
	// is staged by the engine before the resume that completes a call.
	next  func() (request, bool)
	stop  func()
	yield func(request) bool
	reply reply
	// The upcalls of the pending request, staged by the workload before it
	// yields: a send is frame k of a train of count that src continues (nil
	// for a train of one), a recv offers each arrival to sink (nil: the first
	// completes the call). upcall is set while one of them runs, where a
	// switch into the workload is impossible; resumes counts those switches.
	src      FrameSource
	k, count int
	sink     FrameSink
	upcall   bool
	resumes  int

	pending     request
	havePending bool
	overhead    simtime.Duration // busy time still owed before pending completes
	recvArr     Arrival          // arrival being charged RecvOverhead
	haveRecv    bool
	started     bool
	done        bool
	doneErr     error
	finishedAt  simtime.Guest

	program Program
	metrics map[string]float64
}

// NewNode creates node id of a cluster with size nodes, running program.
func NewNode(id, size int, cfg Config, program Program) *Node {
	return &Node{
		id:      id,
		size:    size,
		cfg:     cfg,
		program: program,
		metrics: map[string]float64{},
	}
}

// ID returns the node's rank.
func (n *Node) ID() int { return n.id }

// Clock returns the node's guest clock.
func (n *Node) Clock() simtime.Guest { return n.clock }

// Done reports whether the workload has finished.
func (n *Node) Done() bool { return n.done }

// FinishedAt returns the guest time at which the workload finished.
func (n *Node) FinishedAt() simtime.Guest { return n.finishedAt }

// Err returns the workload's error, if any.
func (n *Node) Err() error { return n.doneErr }

// Metrics returns the metrics the workload reported via Proc.Report.
func (n *Node) Metrics() map[string]float64 { return n.metrics }

// BeginQuantum sets the guest-time limit (absolute) for the next quantum.
func (n *Node) BeginQuantum(limit simtime.Guest) {
	if limit < n.clock {
		panic(fmt.Sprintf("guest: node %d quantum limit %v before clock %v", n.id, limit, n.clock))
	}
	n.limit = limit
}

// Deliver makes frame visible to the node at guest time arr. arr may be in
// the node's already-simulated past (a straggler delivered mid-segment); the
// frame then becomes visible at the next Recv, exactly as a late interrupt
// would in a real full-system simulator.
//
// Equal-arrival frames are consumed in Frame.ID order — an intrinsic,
// canonical tie-break (IDs encode (source, per-source sequence)) — rather
// than in delivery order. This keeps the receive order independent of
// *when* the controller routed the frames, which is what lets the engine's
// barrier routing and a tight partition's event queue feed identical frame
// sequences to the workload.
//
// Like every other method, Deliver belongs to the node's owner: it pushes to
// the receive queue with no lock.
func (n *Node) Deliver(f *pkt.Frame, arr simtime.Guest) {
	n.rx.PushPri(int64(arr), int(f.ID), f)
}

// DeliverBatch delivers a run of arrivals, with the ordering semantics of
// repeated Deliver calls: the receive queue orders by (arrival time, Frame.ID,
// push sequence), so batch boundaries are invisible to the workload. It is
// the owner's, like Deliver. The engine delivers with Deliver alone;
// DeliverBatch stays while the benchmark harness measures it.
func (n *Node) DeliverBatch(batch []Arrival) {
	for _, a := range batch {
		n.rx.PushPri(int64(a.Time), int(a.Frame.ID), a.Frame)
	}
}

// WakeAt advances the node's clock to g (idle time passed while blocked or
// at a barrier). g must not be before the current clock or past the limit.
func (n *Node) WakeAt(g simtime.Guest) {
	if g < n.clock {
		panic(fmt.Sprintf("guest: node %d woken at %v before clock %v", n.id, g, n.clock))
	}
	if g > n.limit {
		panic(fmt.Sprintf("guest: node %d woken at %v past limit %v", n.id, g, n.limit))
	}
	n.clock = g
}

// Step advances the node until its next externally visible event and reports
// it in the node's own step record, which stays valid until the next Step
// overwrites it. The engine must call BeginQuantum before the first Step of
// each quantum, account host time for every StepBusy interval, and call Step
// again afterwards.
//
// Stepping is self-contained: Step, BeginQuantum, and WakeAt touch only
// this node's state (the private clock, limit, receive queue, and the
// handshake with this node's workload coroutine), never shared controller
// state. Different nodes may therefore be stepped by different goroutines
// concurrently. Calls on a single node, Deliver and Clock included, must be
// serialized, and may migrate between goroutines only across a happens-before
// edge (e.g. a barrier) separating the old owner from the new one.
func (n *Node) Step() *Step {
	if n.done {
		return n.report(Step{Kind: StepDone, From: n.clock, To: n.clock, Err: n.doneErr})
	}
	if !n.started {
		n.started = true
		n.next, n.stop = iter.Pull(n.coroutine)
	}
	for {
		if !n.havePending {
			n.resumes++
			req, ok := n.next()
			if !ok {
				// The coroutine body always yields opDone last, so this is
				// unreachable short of a runtime defect.
				panic("guest: workload coroutine ended without opDone")
			}
			n.pending = req
			n.havePending = true
			switch req.kind {
			case opCompute:
				n.overhead = req.dur
			case opSend:
				n.overhead = n.cfg.SendOverhead
			case opRecv, opSleep, opDone:
				n.overhead = 0
			}
		}
		req := &n.pending

		// A recv that already holds its arrival is just finishing its
		// receive-side CPU overhead.
		if n.haveRecv {
			if !n.chargeBusy() {
				return &n.st
			}
			arr := n.recvArr
			n.haveRecv = false
			if n.sink != nil && n.offer(arr) {
				// Consumed between steps: the same request waits for the
				// next frame, as the workload would have asked at once.
				continue
			}
			n.complete(reply{arrival: arr, hasArr: true})
			continue
		}

		switch req.kind {
		case opCompute:
			if !n.chargeBusy() {
				return &n.st
			}
			n.complete(reply{})

		case opSend:
			if !n.chargeBusy() {
				return &n.st
			}
			f := req.frame
			if n.k++; n.k < n.count {
				// The train goes on: build its next frame now, where the
				// workload would have, and owe that frame's overhead.
				req.frame = n.pull(n.src, n.k)
				n.overhead = n.cfg.SendOverhead
			} else {
				n.complete(reply{})
			}
			return n.report(Step{Kind: StepSend, From: n.clock, To: n.clock, Frame: f})

		case opRecv:
			now := n.clock
			if it, ok := n.rx.Peek(); ok && simtime.Guest(it.Time) <= now {
				n.rx.Pop()
				n.recvArr = Arrival{Frame: it.Payload, Time: simtime.Guest(it.Time)}
				n.haveRecv = true
				n.overhead = n.cfg.RecvOverhead
				continue
			}
			next := simtime.GuestInfinity
			if it, ok := n.rx.Peek(); ok {
				next = simtime.Guest(it.Time)
			}
			if req.deadline <= now {
				// Deadline already passed with nothing deliverable.
				n.complete(reply{})
				continue
			}
			if next <= now {
				// Unreachable given the branch above, but keep the
				// invariant explicit.
				panic("guest: queued arrival not delivered")
			}
			return n.report(Step{Kind: StepBlocked, From: now, To: now, NextArrival: next, Deadline: req.deadline})

		case opSleep:
			now := n.clock
			if req.deadline <= now {
				n.complete(reply{})
				continue
			}
			return n.report(Step{Kind: StepBlocked, From: now, To: now, NextArrival: simtime.GuestInfinity, Deadline: req.deadline})

		case opDone:
			n.done = true
			n.doneErr = req.err
			n.finishedAt = n.clock
			n.havePending = false
			return n.report(Step{Kind: StepDone, From: n.finishedAt, To: n.finishedAt, Err: req.err})
		}
	}
}

// QuietUntil peeks at the node's next event without stepping it or resuming
// its coroutine: the node cannot send, complete an op, finish, or run
// workload code at any guest time strictly before until, provided nothing is
// delivered to it in the meantime. busy reports how it spends that stretch —
// charging a pending op's owed CPU time (true) or blocked/finished (false).
//
// until == Clock() means "step me": the next Step may do anything. A quantum
// whose limit is strictly below until is therefore one in which Step could
// only report a single busy or blocked interval up to the limit, which
// AdvanceQuiet applies in O(1). A limit equal to until is not enough: the op
// completing there resumes the workload inside the quantum (DESIGN.md §7.1).
func (n *Node) QuietUntil() (until simtime.Guest, busy bool) {
	now := n.clock
	switch {
	case n.done:
		return simtime.GuestInfinity, false
	case !n.havePending:
		// Never started, or the next request is still inside the coroutine.
		return now, false
	case n.overhead > 0:
		// Compute, send overhead, or the receive overhead of a held arrival.
		return now.Add(n.overhead), true
	}
	// Nothing owed: only a sleep or a recv still waiting for its frame can
	// hold the node past now. A consumable arrival or a passed deadline
	// (TryRecv) means it acts as soon as it is stepped.
	until = now
	switch {
	case n.pending.kind == opSleep:
		until = n.pending.deadline
	case n.pending.kind == opRecv && !n.haveRecv:
		until = n.pending.deadline
		if it, ok := n.rx.Peek(); ok {
			until = simtime.MinGuest(until, simtime.Guest(it.Time))
		}
	}
	return simtime.MaxGuest(until, now), false
}

// AdvanceQuiet runs the node through a whole quiet stretch ending at limit —
// one quantum or any number of consecutive ones in which it has no event
// (limit < QuietUntil, with busy as QuietUntil reported it): exactly the state
// BeginQuantum and stepping to the limit, quantum after quantum, would leave —
// the clock at the limit, the owed busy time reduced by the guest time spent —
// without resuming the coroutine. The engine relies on the stretch form: it
// leaves a node it fast-forwards where it stood and catches it up in one call
// when the node is next stepped (DESIGN.md §7.1).
func (n *Node) AdvanceQuiet(limit simtime.Guest, busy bool) {
	now := n.clock
	if limit < now {
		panic(fmt.Sprintf("guest: node %d quiet advance to %v before clock %v", n.id, limit, now))
	}
	if busy {
		adv := limit.Sub(now)
		if adv >= n.overhead {
			panic(fmt.Sprintf("guest: node %d quiet advance of %v consumes its owed %v", n.id, adv, n.overhead))
		}
		n.overhead -= adv
	}
	n.limit = limit
	n.clock = limit
}

// report makes st the node's step record and returns it.
func (n *Node) report(st Step) *Step {
	n.st = st
	return &n.st
}

// chargeBusy consumes the pending op's owed busy time up to the quantum
// limit. It reports false, with the step record filled, when the engine must
// take over (busy interval to account, or the limit was reached), and true
// when the owed time is fully consumed.
func (n *Node) chargeBusy() bool {
	if n.overhead <= 0 {
		return true
	}
	now := n.clock
	if now >= n.limit {
		n.st = Step{Kind: StepLimit, From: now, To: now}
		return false
	}
	adv := simtime.MinDuration(n.overhead, n.limit.Sub(now))
	n.clock = now.Add(adv)
	n.overhead -= adv
	n.st = Step{Kind: StepBusy, From: now, To: n.clock}
	return false
}

// complete stages the reply the workload will read when the engine's next
// resume returns control to its suspended call.
func (n *Node) complete(r reply) {
	n.havePending = false
	n.reply = r
}

// frameBlkLen is the frame block size: big enough to amortize allocation,
// small enough that a retained frame pins only a few KB of block.
const frameBlkLen = 64

// newFrame builds the node's next outgoing frame — Send, Broadcast and every
// frame of a train come through here — carved from the node's block and
// numbered in creation order.
func (n *Node) newFrame(dst pkt.MAC, proto pkt.Proto, size int, data []byte) *pkt.Frame {
	if size < 0 {
		panic(fmt.Sprintf("guest: frame with negative size %d", size))
	}
	if len(n.frameBlk) == 0 {
		n.frameBlk = make([]pkt.Frame, frameBlkLen) //simlint:hotalloc one 4 KiB block per 64 frames, carved, never per frame
	}
	f := &n.frameBlk[0]
	n.frameBlk = n.frameBlk[1:]
	n.frameID++
	*f = pkt.Frame{
		Src:   pkt.NodeMAC(n.id),
		Dst:   dst,
		Proto: proto,
		Size:  size,
		Data:  data,
		ID:    uint64(n.id)<<40 | n.frameID,
	}
	return f
}

// pull builds frame k of a train from its source.
func (n *Node) pull(src FrameSource, k int) *pkt.Frame {
	n.upcall = true
	dst, proto, size, data := src.Frame(k)
	n.upcall = false
	return n.newFrame(pkt.NodeMAC(dst), proto, size, data)
}

// offer hands a received frame to the pending recv's sink.
func (n *Node) offer(a Arrival) bool {
	n.upcall = true
	took := n.sink.Absorb(a)
	n.upcall = false
	return took
}

// send issues the request for a train of count frames that starts with f and
// that src continues.
func (n *Node) send(f *pkt.Frame, src FrameSource, count int) {
	n.src, n.k, n.count = src, 0, count
	n.call(request{kind: opSend, frame: f})
}

type poisonError struct{}

func (poisonError) Error() string { return "guest: node shut down" }

// Shutdown unwinds and terminates the workload coroutine. A still-running
// workload's pending yield returns false, call panics with the poison
// sentinel, and the coroutine body runs to completion before stop returns; a
// finished one is parked in its final yield and just returns. Either way the
// coroutine is gone afterwards — one that is never stopped stays a GC root,
// with the node and whatever the node references, for the life of the
// process. Safe to call more than once and on never-started nodes.
func (n *Node) Shutdown() {
	if !n.started {
		return
	}
	n.stop()
	if n.done {
		return
	}
	// The coroutine body has run to completion under stop and recorded the
	// workload's error (the poison sentinel, unless the program had already
	// finished on its own) in doneErr before its final yield.
	n.done = true
	n.finishedAt = n.clock
}

// coroutine is the workload side of the handshake; it runs inside the
// iter.Pull coroutine and always yields an opDone request last, whether the
// program returned, failed, or was poisoned by Shutdown.
func (n *Node) coroutine(yield func(request) bool) {
	n.yield = yield
	p := &Proc{n: n}
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(poisonError); ok {
					err = poisonError{}
					return
				}
				panic(r)
			}
		}()
		err = n.program(p)
	}()
	n.doneErr = err
	yield(request{kind: opDone, err: err})
}

// call issues one workload request and suspends until the engine's reply.
// Runs inside the coroutine; a false yield means the engine is tearing the
// node down via stop. A source or sink runs on the stepper's stack, where
// there is no coroutine to suspend.
func (n *Node) call(req request) reply {
	if n.upcall {
		panic(fmt.Sprintf("guest: Proc.%v called from a frame source/sink", req.kind))
	}
	if !n.yield(req) {
		panic(poisonError{})
	}
	return n.reply
}
