// Package msg implements the reliable message layer the simulated workloads
// communicate over — the simulator's stand-in for the paper's LAM/MPI over
// TCP/IP transport.
//
// A message of arbitrary size addressed to (dst, tag) is fragmented into
// link-layer frames no larger than the MTU, carried over the guest NIC, and
// reassembled at the destination, where messages are matched by (src, tag)
// with FIFO order per (src, tag) pair.
//
// Two transfer protocols are modelled, mirroring real MPI transports:
//
//   - eager: messages up to DefaultEagerMax are pushed immediately (the
//     paper's switch is perfect, so no acknowledgements are needed);
//   - rendezvous: larger messages first send a request-to-send (RTS)
//     control frame and transfer data only after the destination's protocol
//     engine answers clear-to-send (CTS). This creates the multi-trip
//     dependence chains that make alltoall-heavy workloads (NAS-IS) the
//     paper's accuracy worst case.
//
// As an extension beyond the paper's perfect switch, the endpoint also
// supports a Reliable mode — per-message acknowledgements, duplicate
// suppression and timeout-driven retransmission — used together with the
// engine's loss injection to demonstrate the stack survives frame loss. Its
// one retry rule: a message times out after DefaultRetransmitTimeout,
// backing off to at most 8x, and is abandoned as ErrDeliveryFailed on the
// expiry after its DefaultMaxRetries-th retransmission.
//
// Everything here is guest code: fragmentation, control frames and matching
// consume guest CPU time through the per-frame send/receive overheads of the
// node model, exactly where a real guest protocol stack would burn cycles.
package msg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// Any matches any source or any tag in Recv.
const Any = -1

// headerBytes is the wire size of the fragment/control header, which travels
// as the frame's typed pkt.Header and is counted in its Size.
const headerBytes = 40

// chunk is the message payload one data fragment carries: a jumbo frame
// less the header.
const chunk = pkt.DefaultMTU - headerBytes

// DefaultEagerMax is the eager/rendezvous threshold, matching the common
// TCP-transport defaults of 2000s-era MPI implementations: bigger messages
// use the rendezvous protocol.
const DefaultEagerMax = 64 << 10

// DefaultRetransmitTimeout is the reliable-mode retransmission timer, the
// first of a message's timeouts; later ones double up to 8x it.
const DefaultRetransmitTimeout = 200 * simtime.Microsecond

// DefaultMaxRetries is the reliable-mode retransmission cap per message.
// 30 retries at the capped 8x backoff spans tens of milliseconds of guest
// time and makes a spurious failure astronomically unlikely at any loss
// rate worth simulating (0.3^30 ≈ 2e-16), while still bounding the work a
// partitioned link can absorb.
const DefaultMaxRetries = 30

// ErrDeliveryFailed marks a reliable-mode message abandoned after
// exhausting its retransmission budget. Returned (wrapped) by Err and
// Flush.
var ErrDeliveryFailed = errors.New("msg: delivery failed")

// frame kinds; 0 is the zero pkt.Header, foreign traffic.
const (
	kindData byte = iota + 1
	kindRTS
	kindCTS
	kindAck
)

// Message is a fully reassembled message. Messages travel by value from
// reassembly to the receiver; the receiver owns Payload.
type Message struct {
	Src, Tag int
	// Size is the message payload size in bytes.
	Size int
	// Arrival is the guest time the final fragment became visible.
	Arrival simtime.Guest
	// Payload carries message bytes when the sender attached any
	// (size-only messages have a nil Payload).
	Payload []byte
}

// partial is a multi-fragment message under reassembly, found by (m.Src,
// id); completion hands m on by value.
type partial struct {
	m        Message
	id       uint64
	received int
	// got marks the fragments (off/chunk) a reliable endpoint has folded in,
	// so retransmitted fragments are not double-counted; more holds the bits
	// past the 64th fragment.
	got  uint64
	more []uint64
}

// train is a message as its data fragments are built from: what sendData
// pushes as one frame train and what reliable mode keeps to push it again.
// payload is the endpoint's copy of the message's bytes, which the fragments'
// Data slice.
type train struct {
	id       uint64
	dst, tag int
	size     int
	payload  []byte
	seq      uint32
}

// held is a completed message waiting for its predecessors from m.Src (see
// deliverInOrder).
type held struct {
	seq uint32
	m   Message
}

// outMsg is a reliable-mode in-flight message on the sender.
type outMsg struct {
	train
	deadline simtime.Guest
	retries  int32 // with needCTS in one word: an entry of out stays 80 bytes
	// needCTS marks a rendezvous transfer whose handshake is incomplete:
	// timeouts resend the RTS instead of the data.
	needCTS bool
}

// Config selects an endpoint's protocol behaviour. Frames are jumbo
// (pkt.DefaultMTU); the retransmission timer, the retry cap and the eager
// threshold are the Default* constants.
type Config struct {
	// Reliable enables acknowledgements, duplicate suppression and
	// retransmission. All endpoints of a cluster must agree on this.
	Reliable bool
}

// DefaultConfig returns no reliability (the paper's perfect network needs
// none).
func DefaultConfig() Config {
	return Config{}
}

// Endpoint is one node's message-layer endpoint. It must be used only from
// the node's own workload goroutine.
//
// It is also the node's frame source and sink (guest.FrameSource,
// guest.FrameSink): a message's fragments leave as one frame train and
// mid-message fragments are folded in as they arrive, so the workload is
// switched to once per message rather than once per frame.
type Endpoint struct {
	p   *guest.Proc
	cfg Config

	// train is the message whose fragments Frame is supplying (see sendData).
	train train

	nextMsgID uint64
	// ready holds reassembled messages not yet matched, in completion
	// order.
	ready []Message
	// partials holds in-flight reassembly state, one entry per message.
	partials []partial
	// ctsID is the rendezvous send awaiting clear-to-send (one at a time)
	// and ctsOK whether its grant has arrived.
	ctsID uint64
	ctsOK bool

	// out holds reliable-mode messages awaiting acknowledgement, in id
	// (= send) order, so timeout scans are deterministic.
	out []outMsg

	// Per-destination sequence numbers enforce MPI-style non-overtaking
	// delivery even when retransmissions or rendezvous/eager mixing let a
	// later message finish reassembly first; a message from src is complete
	// once its seq is below rxNext[src] or it is in hold, so duplicates are
	// re-acknowledged but not re-delivered. hold is non-empty only while a
	// peer's messages complete out of order (loss, rendezvous reordering).
	txSeq  []uint32
	rxNext []uint32
	hold   []held

	// stats
	framesSent, framesRecv int
	rtsSent, ctsSent       int
	acksSent, retransmits  int
	duplicates             int
	timeouts, failures     int

	// err records the first delivery failure (permanent; see Err).
	err error
}

// New creates an unreliable endpoint over p.
func New(p *guest.Proc) *Endpoint {
	return NewWithConfig(p, DefaultConfig())
}

// NewWithConfig creates an endpoint with explicit protocol configuration.
func NewWithConfig(p *guest.Proc, cfg Config) *Endpoint {
	n := p.Size()
	seqs := make([]uint32, 2*n)
	return &Endpoint{p: p, cfg: cfg, txSeq: seqs[:n], rxNext: seqs[n:]}
}

// Proc returns the underlying guest process handle.
func (e *Endpoint) Proc() *guest.Proc { return e.p }

// Send transmits a size-only message (no payload bytes) to (dst, tag).
func (e *Endpoint) Send(dst, tag, size int) {
	e.send(dst, tag, size, nil)
}

// SendPayload transmits a message carrying actual bytes.
func (e *Endpoint) SendPayload(dst, tag int, payload []byte) {
	e.send(dst, tag, len(payload), payload)
}

// sendCtrl sends a control frame to dst: a header and no payload.
func (e *Endpoint) sendCtrl(dst int, kind byte, id uint64, tag, size int) {
	e.p.SendFrame(pkt.Frame{Dst: pkt.NodeMAC(dst), Proto: pkt.ProtoCtrl, Size: headerBytes,
		Msg: pkt.Header{Kind: kind, ID: id, Tag: int32(tag), Size: size}})
	e.framesSent++
}

func (e *Endpoint) send(dst, tag, size int, payload []byte) {
	if size < 0 {
		panic(fmt.Sprintf("msg: negative message size %d", size))
	}
	if dst == e.p.Rank() {
		// Loopback: deliver without touching the network, as a kernel
		// would, and copy the payload as the network path does: the caller
		// may reuse its buffer once the send returns.
		e.ready = append(e.ready, Message{Src: dst, Tag: tag, Size: size, Arrival: e.p.Now(), Payload: slices.Clone(payload)})
		return
	}
	e.nextMsgID++
	id := e.nextMsgID
	var seq uint32
	if dst >= 0 && dst < len(e.txSeq) {
		// A message to a rank outside the cluster vanishes in the switch;
		// it never consumes a sequence number anyone waits on.
		seq = e.txSeq[dst]
		e.txSeq[dst] = seq + 1
	}

	// Frames in flight outlive this call: they carry a copy of the payload,
	// made once per message.
	t := train{id: id, dst: dst, tag: tag, size: size, payload: slices.Clone(payload), seq: seq}
	rendezvous := size > DefaultEagerMax
	if rendezvous {
		e.sendRTS(dst, id, tag, size)
		if e.cfg.Reliable {
			e.out = append(e.out, outMsg{train: t, needCTS: true, deadline: e.p.Now().Add(DefaultRetransmitTimeout)})
		}
		// Block until the destination grants CTS, retransmitting the RTS as
		// needed; fragments other senders push meanwhile go to the sink.
		e.ctsID, e.ctsOK = id, false
		for !e.ctsOK {
			e.pump(simtime.GuestInfinity, e)
		}
		if i, ok := e.outIndex(id); ok {
			e.out[i].needCTS = false
			e.out[i].deadline = e.p.Now().Add(DefaultRetransmitTimeout)
		}
	}

	e.sendData(t)
	if e.cfg.Reliable && !rendezvous {
		e.out = append(e.out, outMsg{train: t, deadline: e.p.Now().Add(DefaultRetransmitTimeout)})
	}
}

func (e *Endpoint) sendRTS(dst int, id uint64, tag, size int) {
	e.sendCtrl(dst, kindRTS, id, tag, size)
	e.rtsSent++
}

// sendData pushes all data fragments of a message as one frame train: the
// node pulls them from Frame one by one as the previous fragment leaves.
func (e *Endpoint) sendData(t train) {
	e.train = t
	count := 1 // a zero-size message is one header-only fragment
	if t.size > chunk {
		count = (t.size + chunk - 1) / chunk
	}
	e.p.SendTrain(e, count)
	e.framesSent += count
}

// Frame builds fragment k of the message sendData is pushing
// (guest.FrameSource): its header and, for a message with payload, its slice
// of the train's copy.
func (e *Endpoint) Frame(k int) pkt.Frame {
	t := &e.train
	off := k * chunk
	frag := min(t.size-off, chunk)
	f := pkt.Frame{Dst: pkt.NodeMAC(t.dst), Proto: pkt.ProtoMsg, Size: headerBytes + frag,
		Msg: pkt.Header{Kind: kindData, ID: t.id, Tag: int32(t.tag), Size: t.size, Off: off, Frag: int32(frag), Seq: t.seq}}
	if t.payload != nil {
		f.Data = t.payload[off : off+frag : off+frag]
	}
	return f
}

// outIndex finds in-flight message id in out, which ids enter in increasing
// order.
func (e *Endpoint) outIndex(id uint64) (int, bool) {
	return slices.BinarySearchFunc(e.out, id, func(om outMsg, id uint64) int { return cmp.Compare(om.id, id) })
}

// nextDeadline returns the earliest retransmission deadline among in-flight
// messages, or GuestInfinity.
func (e *Endpoint) nextDeadline() simtime.Guest {
	d := simtime.GuestInfinity
	for i := range e.out {
		d = min(d, e.out[i].deadline)
	}
	return d
}

// retransmitDue resends everything whose timer expired, abandoning messages
// that have exhausted their retransmission budget.
func (e *Endpoint) retransmitDue() {
	now := e.p.Now()
	for i := 0; i < len(e.out); i++ {
		om := &e.out[i]
		if om.deadline > now {
			continue
		}
		e.timeouts++
		if om.retries >= DefaultMaxRetries {
			// Out of budget: the message will never be delivered.
			e.failures++
			if e.err == nil {
				e.err = fmt.Errorf("msg: message %d to rank %d (tag %d, %d bytes) abandoned after %d retransmissions: %w",
					om.id, om.dst, om.tag, om.size, om.retries, ErrDeliveryFailed)
			}
			e.out = slices.Delete(e.out, i, i+1)
			i--
			continue
		}
		om.retries++
		e.retransmits++
		// The backoff cap is deliberately low (8x): a retransmitting sender
		// must keep poking its peer's Drain window often enough that the
		// peer cannot plausibly see a full quiet period while traffic is
		// still owed (see Drain).
		backoff := om.retries
		if backoff > 3 {
			backoff = 3
		}
		om.deadline = now.Add(DefaultRetransmitTimeout << uint(backoff))
		if om.needCTS {
			e.sendRTS(om.dst, om.id, om.tag, om.size)
		} else {
			e.sendData(om.train)
		}
	}
}

// pump makes protocol progress until a frame has been handled on the
// workload's side or the guest clock reaches deadline; reliable-mode
// retransmission timers fire inside. Frames sink absorbs on the way (e, or
// nil for none) are handled without returning here. It reports whether a
// frame was handled.
func (e *Endpoint) pump(deadline simtime.Guest, sink guest.FrameSink) bool {
	for {
		e.retransmitDue()
		wait := deadline
		if e.cfg.Reliable {
			if d := e.nextDeadline(); d < wait {
				wait = d
			}
		}
		a, ok := e.p.RecvSink(wait, sink)
		if ok {
			e.handleFrame(a)
			return true
		}
		if e.p.Now() >= deadline {
			return false
		}
		// A retransmission timer fired before the caller's deadline; loop.
	}
}

// Absorb folds a mid-message data fragment into its reassembly state between
// steps (guest.FrameSink). It declines whatever needs the workload: control
// frames (answering them sends), the fragment that completes a message,
// foreign traffic, and every frame of a reliable endpoint, whose pump re-runs
// its retransmission timers between frames.
func (e *Endpoint) Absorb(a guest.Arrival) bool {
	if e.cfg.Reliable || a.Frame.Proto != pkt.ProtoMsg {
		return false // control frames travel as ProtoCtrl
	}
	h := &a.Frame.Msg
	if h.Kind != kindData || int(h.Frag) >= h.Size {
		return false // foreign, or a whole message in one fragment
	}
	src := a.Frame.Src.Node()
	i := e.partialIndex(src, h.ID)
	if i >= 0 && e.partials[i].received+int(h.Frag) >= h.Size {
		return false
	}
	e.framesRecv++
	e.add(a, h, src, i)
	return true
}

// handleFrame folds one received frame into protocol state, moving any
// completed message to the ready list and answering control traffic.
// Foreign traffic (raw frames from synthetic workloads sharing the node) is
// dropped: the endpoint owns the NIC on msg-based nodes.
func (e *Endpoint) handleFrame(a guest.Arrival) {
	h := a.Frame.Msg
	if h.Kind == 0 {
		return
	}
	e.framesRecv++
	src, tag := a.Frame.Src.Node(), int(h.Tag)

	switch h.Kind {
	case kindRTS:
		// Grant immediately: the protocol engine (in a real stack, the
		// progress thread / TCP window) opens the transfer as soon as the
		// RTS is seen. Duplicate RTS (lost CTS) is granted again.
		e.sendCtrl(src, kindCTS, h.ID, tag, h.Size)
		e.ctsSent++
		return
	case kindCTS:
		if h.ID == e.ctsID {
			e.ctsOK = true // a stale CTS (its RTS granted twice) is ignored
		}
		return
	case kindAck:
		if i, ok := e.outIndex(h.ID); ok {
			e.out = slices.Delete(e.out, i, i+1)
		}
		return
	}

	if e.cfg.Reliable && (h.Seq < e.rxNext[src] || e.heldIndex(src, h.Seq) >= 0) {
		// A duplicate of a message we already completed: its ack was lost.
		e.duplicates++
		e.ack(src, h.ID, tag, h.Size)
		return
	}
	m := Message{Src: src, Tag: tag, Size: h.Size, Arrival: a.Time}
	if i := e.partialIndex(src, h.ID); i >= 0 || int(h.Frag) < h.Size {
		var done bool
		if m, done = e.add(a, &h, src, i); !done {
			return
		}
	} else if carriesData(a.Frame) {
		// Single-fragment message: complete on arrival, so reassembly state
		// is unnecessary.
		m.Payload = make([]byte, h.Size)
		copy(m.Payload, a.Frame.Data[:h.Frag])
	}
	e.deliverInOrder(h.Seq, m)
	e.ack(src, h.ID, tag, h.Size)
}

// carriesData reports whether data fragment f came with its payload bytes.
func carriesData(f *pkt.Frame) bool {
	return f.Msg.Frag > 0 && len(f.Data) >= int(f.Msg.Frag)
}

// partialIndex finds message id from src in partials, or returns -1.
func (e *Endpoint) partialIndex(src int, id uint64) int {
	for i := range e.partials {
		if e.partials[i].id == id && e.partials[i].m.Src == src {
			return i
		}
	}
	return -1
}

// add folds data fragment h from src into its reassembly state partials[i]
// (i < 0: created here for the message's first fragment) and returns the
// message and true once it is complete.
func (e *Endpoint) add(a guest.Arrival, h *pkt.Header, src, i int) (Message, bool) {
	if i < 0 {
		i = len(e.partials)
		e.partials = append(e.partials, partial{m: Message{Src: src, Tag: int(h.Tag), Size: h.Size}, id: h.ID})
	}
	pa := &e.partials[i]
	if e.cfg.Reliable {
		k, w := h.Off/chunk, &pa.got
		if k >= 64 {
			for len(pa.more) < k/64 {
				pa.more = append(pa.more, 0) // messages past 64 fragments only
			}
			w = &pa.more[k/64-1]
		}
		bit := uint64(1) << (k % 64)
		if *w&bit != 0 {
			e.duplicates++
			return Message{}, false
		}
		*w |= bit
	}
	if carriesData(a.Frame) {
		if pa.m.Payload == nil {
			pa.m.Payload = make([]byte, h.Size) // one per payload-carrying message: the buffer the application receives
		}
		copy(pa.m.Payload[h.Off:h.Off+int(h.Frag)], a.Frame.Data[:h.Frag])
	}
	pa.received += int(h.Frag)
	if pa.received < pa.m.Size {
		return Message{}, false
	}
	m := pa.m
	m.Arrival = a.Time
	last := len(e.partials) - 1
	e.partials[i], e.partials[last] = e.partials[last], partial{}
	e.partials = e.partials[:last]
	return m, true
}

// deliverInOrder releases completed message m to the ready list strictly in
// per-source send order (MPI non-overtaking), holding it while its
// predecessors are still in flight and releasing the held messages it was
// the predecessor of.
func (e *Endpoint) deliverInOrder(seq uint32, m Message) {
	src := m.Src
	if next := e.rxNext[src]; seq != next {
		// Only an unreliable endpoint, which does not screen duplicates, gets
		// here with a copy of a delivered message (seq < next), which nothing
		// would release, or of a held one, which the later copy replaces.
		if i := e.heldIndex(src, seq); i >= 0 {
			e.hold[i].m = m
		} else if seq > next {
			e.hold = append(e.hold, held{seq: seq, m: m})
		}
		return
	}
	e.rxNext[src]++
	e.ready = append(e.ready, m)
	for len(e.hold) > 0 {
		i := e.heldIndex(src, e.rxNext[src])
		if i < 0 {
			return
		}
		e.ready = append(e.ready, e.hold[i].m)
		e.hold = slices.Delete(e.hold, i, i+1)
		e.rxNext[src]++
	}
}

// heldIndex finds message seq from src in hold, or returns -1.
func (e *Endpoint) heldIndex(src int, seq uint32) int {
	for i := range e.hold {
		if e.hold[i].seq == seq && e.hold[i].m.Src == src {
			return i
		}
	}
	return -1
}

func (e *Endpoint) ack(dst int, id uint64, tag, size int) {
	if !e.cfg.Reliable {
		return
	}
	e.sendCtrl(dst, kindAck, id, tag, size)
	e.acksSent++
}

func match(m *Message, src, tag int) bool {
	return (src == Any || m.Src == src) && (tag == Any || m.Tag == tag)
}

// take removes the first ready message matching (src, tag) and returns it.
func (e *Endpoint) take(src, tag int) (Message, bool) {
	for i := range e.ready {
		if match(&e.ready[i], src, tag) {
			m := e.ready[i]
			e.ready = slices.Delete(e.ready, i, i+1)
			return m, true
		}
	}
	return Message{}, false
}

// Recv blocks until a message matching (src, tag) — either may be Any — has
// fully arrived, and returns it by value; its Payload is the receiver's to
// keep. Messages from the same source and tag are returned in sending order.
func (e *Endpoint) Recv(src, tag int) Message {
	for {
		if m, ok := e.take(src, tag); ok {
			return m
		}
		e.pump(simtime.GuestInfinity, e)
	}
}

// RecvDeadline is Recv with an absolute guest-time deadline; ok reports
// whether a message was returned before the deadline. When it was not, m is
// the zero Message.
func (e *Endpoint) RecvDeadline(src, tag int, deadline simtime.Guest) (m Message, ok bool) {
	for {
		if m, ok := e.take(src, tag); ok {
			return m, true
		}
		if !e.pump(deadline, e) {
			return Message{}, false
		}
	}
}

// Flush blocks until every reliable-mode message has been acknowledged or
// abandoned, driving retransmissions as needed, and returns the endpoint's
// first recorded delivery failure (nil when everything was delivered). It
// is a no-op on unreliable endpoints.
//
// Flush terminates even against a link that never delivers: it tracks no
// message of its own, and every outstanding message abandons itself within
// DefaultMaxRetries+1 timeouts of at most 8×DefaultRetransmitTimeout each,
// surfacing ErrDeliveryFailed.
func (e *Endpoint) Flush() error {
	if !e.cfg.Reliable {
		return nil
	}
	for e.Outstanding() > 0 {
		// Bound each wait by the earliest retransmission deadline so the
		// loop re-checks Outstanding after every timer fire — including the
		// one that abandons the last in-flight message, after which no
		// frame may ever arrive to end an unbounded wait.
		e.pump(e.nextDeadline(), e)
	}
	return e.err
}

// Err returns the endpoint's first recorded delivery failure — a reliable
// message abandoned after DefaultMaxRetries retransmissions — wrapping
// ErrDeliveryFailed, or nil. Failures are permanent.
func (e *Endpoint) Err() error { return e.err }

// Drain keeps the protocol engine responsive (re-acknowledging duplicates,
// retransmitting) until the network has been quiet for the given guest
// duration — the TIME_WAIT of this protocol. Reliable peers should Drain
// before exiting so a sender whose acks were lost can still complete its
// Flush.
//
// Like TCP's TIME_WAIT, this is probabilistic: a peer still owed traffic
// retransmits at most every 8×DefaultRetransmitTimeout, so a quiet period
// of K×8×DefaultRetransmitTimeout is abandoned prematurely only if K
// consecutive retransmissions are all lost. Choose quiet ≥ ~20×
// DefaultRetransmitTimeout for loss rates worth running (4ms+ at the 200µs
// timer; tests use tens of ms).
func (e *Endpoint) Drain(quiet simtime.Duration) {
	// No sink: the quiet period restarts at every frame, fragments included.
	for e.pump(e.p.Now().Add(quiet), nil) {
	}
}

// Outstanding reports how many reliable-mode messages still await
// acknowledgement.
func (e *Endpoint) Outstanding() int { return len(e.out) }

// Pending reports how many fully arrived but unmatched messages the endpoint
// holds (useful for drain assertions in tests).
func (e *Endpoint) Pending() int { return len(e.ready) }

// Incomplete reports how many messages are mid-reassembly.
func (e *Endpoint) Incomplete() int { return len(e.partials) }

// Stats returns frame-level protocol counters: data/control frames sent and
// received, and RTS/CTS control frames sent.
func (e *Endpoint) Stats() (framesSent, framesRecv, rtsSent, ctsSent int) {
	return e.framesSent, e.framesRecv, e.rtsSent, e.ctsSent
}

// ReliabilityStats returns reliable-mode counters: acks sent, message
// retransmissions performed, and duplicate fragments suppressed.
func (e *Endpoint) ReliabilityStats() (acksSent, retransmits, duplicates int) {
	return e.acksSent, e.retransmits, e.duplicates
}

// TransportStats extends ReliabilityStats with the retry machinery's
// counters: retransmission-timer expiries and permanently failed messages.
func (e *Endpoint) TransportStats() (acksSent, retransmits, timeouts, duplicates, failures int) {
	return e.acksSent, e.retransmits, e.timeouts, e.duplicates, e.failures
}

// ReportMetrics publishes the endpoint's transport counters as node metrics
// (msg_retransmits, msg_timeouts, msg_acks, msg_duplicates, msg_failures)
// via Proc.Report, so runs can aggregate per-rank reliable-transport
// behaviour next to application metrics.
func (e *Endpoint) ReportMetrics() {
	e.p.Report("msg_retransmits", float64(e.retransmits))
	e.p.Report("msg_timeouts", float64(e.timeouts))
	e.p.Report("msg_acks", float64(e.acksSent))
	e.p.Report("msg_duplicates", float64(e.duplicates))
	e.p.Report("msg_failures", float64(e.failures))
}
