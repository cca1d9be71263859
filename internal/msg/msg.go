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
	"encoding/binary"
	"errors"
	"fmt"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// Any matches any source or any tag in Recv.
const Any = -1

// headerBytes is the wire size of the fragment/control header.
const headerBytes = 40

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

// frame kinds.
const (
	kindData byte = iota
	kindRTS
	kindCTS
	kindAck
)

// Message is a fully reassembled message.
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

type msgKey struct {
	src   int
	msgID uint64
}

type partial struct {
	// m is the message under reassembly; completion hands out &pa.m, so a
	// message costs one allocation, not a partial plus a Message.
	m        Message
	seq      uint32
	received int
	gotData  bool
	// gotOff marks byte offsets already folded in, so retransmitted
	// fragments are not double-counted.
	gotOff map[int]bool
}

// train is a message as its data fragments are built from: what sendData
// pushes as one frame train and what reliable mode keeps to push it again.
type train struct {
	id       uint64
	dst, tag int
	size     int
	payload  []byte
	seq      uint32
}

// outMsg is a reliable-mode in-flight message on the sender.
type outMsg struct {
	train
	deadline simtime.Guest
	retries  int32 // with needCTS in one word: the struct stays in its 80-byte size class
	// needCTS marks a rendezvous transfer whose handshake is incomplete:
	// timeouts resend the RTS instead of the data.
	needCTS bool
}

// Config selects an endpoint's protocol behaviour. The retransmission
// timer, the retry cap and the eager threshold are the Default* constants.
type Config struct {
	// MTU is the frame payload capacity in bytes (e.g. pkt.DefaultMTU).
	MTU int
	// Reliable enables acknowledgements, duplicate suppression and
	// retransmission. All endpoints of a cluster must agree on this.
	Reliable bool
}

// DefaultConfig returns jumbo frames and no reliability (the paper's
// perfect network needs none).
func DefaultConfig() Config {
	return Config{MTU: pkt.DefaultMTU}
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
	ready []*Message
	// partials holds in-flight reassembly state.
	partials map[msgKey]*partial
	// cts holds clear-to-send grants received for our pending rendezvous
	// sends.
	cts map[uint64]bool

	// Reliable-mode state. unackedIDs preserves send order so timeout scans
	// are deterministic (never iterate a map).
	unacked   map[uint64]*outMsg
	unackedID []uint64
	// completed remembers fully received (src, msgID) pairs so duplicates
	// are re-acknowledged but not re-delivered.
	completed map[msgKey]bool

	// Per-destination sequence numbers enforce MPI-style non-overtaking
	// delivery even when retransmissions or rendezvous/eager mixing let a
	// later message finish reassembly first. The cluster size is fixed, so
	// these are flat per-peer slices; the hold maps exist only for peers
	// that actually reorder (lazily allocated in deliverInOrder).
	txSeq  []uint32
	rxNext []uint32
	rxHold []map[uint32]*Message

	// wireSlab is the tail of the current wire-byte slab (see sendData) and
	// msgBlk the tail of the current Message block (see newMessage); both
	// carve batch allocations into individually handed-out objects that the
	// GC reclaims block-wise once every holder has dropped theirs. slabLen
	// doubles from modest to maxSlab so light endpoints never pay for the
	// full slab.
	wireSlab []byte
	slabLen  int
	msgBlk   []Message

	// stats
	framesSent, framesRecv int
	rtsSent, ctsSent       int
	acksSent, retransmits  int
	duplicates             int
	timeouts, failures     int

	// err records the first delivery failure (permanent; see Err).
	err error
}

// New creates an unreliable endpoint over p with the given MTU.
func New(p *guest.Proc, mtu int) *Endpoint {
	return NewWithConfig(p, Config{MTU: mtu})
}

// NewWithConfig creates an endpoint with explicit protocol configuration.
// It panics if the MTU cannot fit the fragment header: that is a
// configuration bug.
func NewWithConfig(p *guest.Proc, cfg Config) *Endpoint {
	if cfg.MTU <= headerBytes {
		panic(fmt.Sprintf("msg: MTU %d cannot carry the %d-byte fragment header", cfg.MTU, headerBytes))
	}
	return &Endpoint{
		p:         p,
		cfg:       cfg,
		partials:  map[msgKey]*partial{},
		cts:       map[uint64]bool{},
		unacked:   map[uint64]*outMsg{},
		completed: map[msgKey]bool{},
		txSeq:     make([]uint32, p.Size()),
		rxNext:    make([]uint32, p.Size()),
		rxHold:    make([]map[uint32]*Message, p.Size()),
	}
}

// Proc returns the underlying guest process handle.
func (e *Endpoint) Proc() *guest.Proc { return e.p }

// MTU returns the endpoint's frame payload capacity.
func (e *Endpoint) MTU() int { return e.cfg.MTU }

// Send transmits a size-only message (no payload bytes) to (dst, tag).
func (e *Endpoint) Send(dst, tag, size int) {
	e.send(dst, tag, size, nil)
}

// SendPayload transmits a message carrying actual bytes.
func (e *Endpoint) SendPayload(dst, tag int, payload []byte) {
	e.send(dst, tag, len(payload), payload)
}

// header is a decoded fragment/control header.
type header struct {
	kind      byte
	id        uint64
	tag, size int
	off, frag int
	seq       uint32
}

// headerInto encodes a fragment/control header into dst[:headerBytes].
func headerInto(dst []byte, kind byte, id uint64, tag, size, off, frag int, seq uint32) {
	dst[0] = kind
	binary.LittleEndian.PutUint64(dst[1:], id)
	binary.LittleEndian.PutUint32(dst[9:], uint32(tag))
	binary.LittleEndian.PutUint64(dst[13:], uint64(size))
	binary.LittleEndian.PutUint64(dst[21:], uint64(off))
	binary.LittleEndian.PutUint32(dst[29:], uint32(frag))
	binary.LittleEndian.PutUint32(dst[33:], seq)
}

// parseHeader decodes f's header. !ok is foreign traffic (raw frames from
// synthetic workloads sharing the node), which the endpoint drops: it owns
// the NIC on msg-based nodes.
func parseHeader(f *pkt.Frame) (h header, ok bool) {
	if (f.Proto != pkt.ProtoMsg && f.Proto != pkt.ProtoCtrl) || len(f.Data) < headerBytes {
		return header{}, false
	}
	return header{
		kind: f.Data[0],
		id:   binary.LittleEndian.Uint64(f.Data[1:]),
		tag:  int(int32(binary.LittleEndian.Uint32(f.Data[9:]))),
		size: int(binary.LittleEndian.Uint64(f.Data[13:])),
		off:  int(binary.LittleEndian.Uint64(f.Data[21:])),
		frag: int(binary.LittleEndian.Uint32(f.Data[29:])),
		seq:  binary.LittleEndian.Uint32(f.Data[33:]),
	}, true
}

// ctrl builds a control-frame header on wire bytes carved from the
// endpoint's slab.
func (e *Endpoint) ctrl(kind byte, id uint64, tag, size int) []byte {
	hdr := e.carve(headerBytes)
	headerInto(hdr, kind, id, tag, size, 0, 0, 0)
	return hdr
}

func (e *Endpoint) send(dst, tag, size int, payload []byte) {
	if size < 0 {
		panic(fmt.Sprintf("msg: negative message size %d", size))
	}
	if dst == e.p.Rank() {
		// Loopback: deliver without touching the network, as a kernel
		// would.
		m := e.newMessage()
		*m = Message{Src: dst, Tag: tag, Size: size, Arrival: e.p.Now(), Payload: payload}
		e.ready = append(e.ready, m)
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

	t := train{id: id, dst: dst, tag: tag, size: size, payload: payload, seq: seq}
	rendezvous := size > DefaultEagerMax
	if rendezvous {
		e.sendRTS(dst, id, tag, size)
		var om *outMsg
		if e.cfg.Reliable {
			om = &outMsg{train: t, needCTS: true, deadline: e.p.Now().Add(DefaultRetransmitTimeout)}
			e.track(om)
		}
		// Block until the destination grants CTS, retransmitting the RTS as
		// needed; fragments other senders push meanwhile go to the sink.
		for !e.cts[id] {
			e.pump(simtime.GuestInfinity, e)
		}
		if om != nil {
			om.needCTS = false
			om.deadline = e.p.Now().Add(DefaultRetransmitTimeout)
		}
		delete(e.cts, id)
	}

	e.sendData(t)
	if e.cfg.Reliable && !rendezvous {
		e.track(&outMsg{train: t, deadline: e.p.Now().Add(DefaultRetransmitTimeout)})
	}
}

func (e *Endpoint) sendRTS(dst int, id uint64, tag, size int) {
	e.p.Send(dst, pkt.ProtoCtrl, headerBytes, e.ctrl(kindRTS, id, tag, size))
	e.rtsSent++
	e.framesSent++
}

// maxSlab caps the endpoint's wire-byte slabs at the Go runtime's
// small-object limit: one slab a few bytes over 32 KiB would fall onto the
// page-granular large-object path and cost more than the allocations it
// replaces.
const maxSlab = 32 << 10

// carve slices n wire bytes off the endpoint's slab, with a full-capacity
// bound so no holder of a frame (receivers, the broadcast fan-out, traces)
// can grow one fragment into its neighbour's bytes. The slab persists
// across messages — header-only fragments are 40 bytes, so one slab serves
// hundreds of sends — and is reclaimed by the GC as a whole once every
// fragment carved from it has been dropped: exactly the lifetime individual
// allocations would have, minus the garbage.
func (e *Endpoint) carve(n int) []byte {
	if len(e.wireSlab) < n {
		if e.slabLen < maxSlab {
			e.slabLen = 2 * e.slabLen
			if e.slabLen < 2048 {
				e.slabLen = 2048
			}
			if e.slabLen > maxSlab {
				e.slabLen = maxSlab
			}
		}
		ln := e.slabLen
		if n > ln {
			ln = n
		}
		e.wireSlab = make([]byte, ln) //simlint:hotalloc one slab per 2-32 KiB of wire bytes, carved, never per fragment
	}
	b := e.wireSlab[:n:n]
	e.wireSlab = e.wireSlab[n:]
	return b
}

// msgBlkLen is the Message block size (see newMessage).
const msgBlkLen = 64

// newMessage carves one zeroed Message from the endpoint's block. Messages
// escape to the application and are never recycled; the block is collected
// once every message carved from it has been dropped.
func (e *Endpoint) newMessage() *Message {
	if len(e.msgBlk) == 0 {
		e.msgBlk = make([]Message, msgBlkLen)
	}
	m := &e.msgBlk[0]
	e.msgBlk = e.msgBlk[1:]
	return m
}

// sendData pushes all data fragments of a message as one frame train: the
// node pulls them from Frame one by one as the previous fragment leaves.
func (e *Endpoint) sendData(t train) {
	e.train = t
	chunk := e.cfg.MTU - headerBytes
	count := 1 // a zero-size message is one header-only fragment
	if t.size > chunk {
		count = (t.size + chunk - 1) / chunk
	}
	e.p.SendTrain(e, count)
	e.framesSent += count
}

// Frame builds fragment k of the message sendData is pushing, its wire bytes
// carved from the endpoint's shared slab (guest.FrameSource).
//
//simlint:hotpath called by guest.Node.Step once per fragment, through an interface
func (e *Endpoint) Frame(k int) (dst int, proto pkt.Proto, size int, data []byte) {
	t := &e.train
	chunk := e.cfg.MTU - headerBytes
	off := k * chunk
	frag := t.size - off
	if frag > chunk {
		frag = chunk
	}
	n := headerBytes
	if t.payload != nil {
		n += frag
	}
	data = e.carve(n)
	headerInto(data, kindData, t.id, t.tag, t.size, off, frag, t.seq)
	if t.payload != nil {
		copy(data[headerBytes:], t.payload[off:off+frag])
	}
	return t.dst, pkt.ProtoMsg, headerBytes + frag, data
}

func (e *Endpoint) track(om *outMsg) {
	e.unacked[om.id] = om
	e.unackedID = append(e.unackedID, om.id)
}

// nextDeadline returns the earliest retransmission deadline among in-flight
// messages, or GuestInfinity.
func (e *Endpoint) nextDeadline() simtime.Guest {
	d := simtime.GuestInfinity
	for _, id := range e.unackedID {
		om := e.unacked[id]
		if om != nil && om.deadline < d {
			d = om.deadline
		}
	}
	return d
}

// retransmitDue resends everything whose timer expired, abandoning messages
// that have exhausted their retransmission budget.
func (e *Endpoint) retransmitDue() {
	now := e.p.Now()
	live := e.unackedID[:0]
	for _, id := range e.unackedID {
		om := e.unacked[id]
		if om == nil {
			continue // acked
		}
		if om.deadline <= now {
			e.timeouts++
			if om.retries >= DefaultMaxRetries {
				// Out of budget: the message will never be delivered.
				e.failures++
				if e.err == nil {
					e.err = fmt.Errorf("msg: message %d to rank %d (tag %d, %d bytes) abandoned after %d retransmissions: %w",
						om.id, om.dst, om.tag, om.size, om.retries, ErrDeliveryFailed)
				}
				delete(e.unacked, id)
				continue
			}
		}
		live = append(live, id)
		if om.deadline > now {
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
	e.unackedID = live
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
//
//simlint:hotpath called by guest.Node.Step once per received frame, through an interface
func (e *Endpoint) Absorb(a guest.Arrival) bool {
	if e.cfg.Reliable || a.Frame.Proto != pkt.ProtoMsg {
		return false // control frames travel as ProtoCtrl
	}
	h, ok := parseHeader(a.Frame)
	if !ok || h.kind != kindData || h.frag >= h.size {
		return false // malformed, or a whole message in one fragment
	}
	key := msgKey{src: a.Frame.Src.Node(), msgID: h.id}
	pa := e.partials[key]
	if pa != nil && pa.received+h.frag >= h.size {
		return false
	}
	e.framesRecv++
	e.add(a, &h, key, pa)
	return true
}

// handleFrame folds one received frame into protocol state, moving any
// completed message to the ready list and answering control traffic.
func (e *Endpoint) handleFrame(a guest.Arrival) {
	h, ok := parseHeader(a.Frame)
	if !ok {
		return
	}
	e.framesRecv++
	src := a.Frame.Src.Node()

	switch h.kind {
	case kindRTS:
		// Grant immediately: the protocol engine (in a real stack, the
		// progress thread / TCP window) opens the transfer as soon as the
		// RTS is seen. Duplicate RTS (lost CTS) is granted again.
		e.p.Send(src, pkt.ProtoCtrl, headerBytes, e.ctrl(kindCTS, h.id, h.tag, h.size))
		e.ctsSent++
		e.framesSent++
		return
	case kindCTS:
		e.cts[h.id] = true
		return
	case kindAck:
		delete(e.unacked, h.id)
		return
	}

	key := msgKey{src: src, msgID: h.id}
	if e.completed[key] {
		// A duplicate of a message we already delivered: its ack was lost.
		e.duplicates++
		e.ack(src, h.id, h.tag, h.size)
		return
	}
	pa := e.partials[key]
	if pa == nil && h.frag >= h.size && !e.cfg.Reliable {
		// Single-fragment message on an unreliable endpoint: complete on
		// arrival, so reassembly state (and its map round-trip) is
		// unnecessary. Reliable mode still tracks it for duplicate
		// suppression.
		m := e.newMessage()
		*m = Message{Src: src, Tag: h.tag, Size: h.size, Arrival: a.Time}
		if carriesData(a.Frame, &h) {
			m.Payload = make([]byte, h.size)
			copy(m.Payload, a.Frame.Data[headerBytes:headerBytes+h.frag])
		}
		e.deliverInOrder(src, h.seq, m)
		return
	}
	pa, complete := e.add(a, &h, key, pa)
	if complete {
		m := &pa.m
		m.Arrival = a.Time
		if !pa.gotData {
			m.Payload = nil
		}
		delete(e.partials, key)
		e.deliverInOrder(src, pa.seq, m)
		if e.cfg.Reliable {
			e.completed[key] = true
			e.ack(src, h.id, m.Tag, m.Size)
		}
	}
}

// carriesData reports whether data fragment h came with its payload bytes.
func carriesData(f *pkt.Frame, h *header) bool {
	return len(f.Data) >= headerBytes+h.frag && h.frag > 0 && len(f.Data) > headerBytes
}

// add folds data fragment h of message key into its reassembly state pa,
// created here for a message's first fragment, and reports whether the
// message is now complete.
func (e *Endpoint) add(a guest.Arrival, h *header, key msgKey, pa *partial) (*partial, bool) {
	if pa == nil {
		pa = &partial{m: Message{Src: key.src, Tag: h.tag, Size: h.size}, seq: h.seq} //simlint:hotalloc one per multi-fragment message: it becomes the Message the application receives
		if e.cfg.Reliable {
			pa.gotOff = map[int]bool{} //simlint:hotalloc reliable mode only, one per message; the sink declines every reliable frame
		}
		e.partials[key] = pa
	}
	if pa.gotOff != nil {
		if pa.gotOff[h.off] {
			e.duplicates++
			return pa, false
		}
		pa.gotOff[h.off] = true
	}
	if carriesData(a.Frame, h) {
		if pa.m.Payload == nil {
			pa.m.Payload = make([]byte, h.size) //simlint:hotalloc one per payload-carrying message: the buffer the application receives
		}
		copy(pa.m.Payload[h.off:h.off+h.frag], a.Frame.Data[headerBytes:headerBytes+h.frag])
		pa.gotData = true
	}
	pa.received += h.frag
	return pa, pa.received >= pa.m.Size
}

// deliverInOrder releases completed messages to the ready list strictly in
// per-source send order (MPI non-overtaking), holding any message whose
// predecessors are still in flight.
func (e *Endpoint) deliverInOrder(src int, seq uint32, m *Message) {
	hold := e.rxHold[src]
	if seq == e.rxNext[src] && len(hold) == 0 {
		// The common case: the message is next in sequence and nothing is
		// held — release it without touching the hold map at all.
		e.rxNext[src] = seq + 1
		e.ready = append(e.ready, m)
		return
	}
	if hold == nil {
		hold = map[uint32]*Message{}
		e.rxHold[src] = hold
	}
	hold[seq] = m
	for {
		next, ok := hold[e.rxNext[src]]
		if !ok {
			return
		}
		delete(hold, e.rxNext[src])
		e.rxNext[src]++
		e.ready = append(e.ready, next)
	}
}

func (e *Endpoint) ack(dst int, id uint64, tag, size int) {
	if !e.cfg.Reliable {
		return
	}
	e.p.Send(dst, pkt.ProtoCtrl, headerBytes, e.ctrl(kindAck, id, tag, size))
	e.acksSent++
	e.framesSent++
}

func match(m *Message, src, tag int) bool {
	return (src == Any || m.Src == src) && (tag == Any || m.Tag == tag)
}

// take removes and returns the first ready message matching (src, tag).
func (e *Endpoint) take(src, tag int) *Message {
	for i, m := range e.ready {
		if match(m, src, tag) {
			e.ready = append(e.ready[:i], e.ready[i+1:]...)
			return m
		}
	}
	return nil
}

// Recv blocks until a message matching (src, tag) — either may be Any — has
// fully arrived, and returns it. Messages from the same source and tag are
// returned in sending order.
func (e *Endpoint) Recv(src, tag int) *Message {
	for {
		if m := e.take(src, tag); m != nil {
			return m
		}
		e.pump(simtime.GuestInfinity, e)
	}
}

// RecvDeadline is Recv with an absolute guest-time deadline; ok reports
// whether a message was returned before the deadline.
func (e *Endpoint) RecvDeadline(src, tag int, deadline simtime.Guest) (m *Message, ok bool) {
	for {
		if m := e.take(src, tag); m != nil {
			return m, true
		}
		if !e.pump(deadline, e) {
			return nil, false
		}
	}
}

// TryRecv returns a matching message if one has already fully arrived,
// consuming any frames already visible to the guest.
func (e *Endpoint) TryRecv(src, tag int) (m *Message, ok bool) {
	return e.RecvDeadline(src, tag, e.p.Now())
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
func (e *Endpoint) Outstanding() int {
	n := 0
	for _, id := range e.unackedID {
		if e.unacked[id] != nil {
			n++
		}
	}
	return n
}

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
