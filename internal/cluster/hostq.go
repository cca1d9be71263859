package cluster

import (
	"fmt"
	"slices"

	"clustersim/internal/simtime"
)

// hostQueue is the event-queue walk's host-time order (DESIGN.md §2.2): a
// FIFO of frame events, sorted as pushed since each is queued at its
// dispatching event's host time plus PacketTransit, and a binary heap of node
// events, at most one per node and indexed by node, keyed by (host time, wake
// before step, schedule sequence). At equal host times frames go first, so a
// delivery racing a segment end is observed by the resuming node.
type hostQueue struct {
	fifo    []frameEv // a ring; its length is zero or a power of two
	head, n int
	heap    []nodeEv
	pos     []int32 // node -> heap index, -1 for none
	seq     uint64  // schedule sequence
}

type frameEv struct { // a flight-arena index and the host time it reaches the controller
	h  simtime.Host
	fi int32
}

type nodeEv struct {
	h    simtime.Host
	tie  uint64 // stepTie for a step, plus the schedule sequence
	node int32
}

const stepTie = 1 << 63

func (a *nodeEv) before(b *nodeEv) bool { return a.h < b.h || a.h == b.h && a.tie < b.tie }

// reserve allocates the node index at a run's first tight walk.
func (q *hostQueue) reserve(nodes int) {
	if q.pos == nil {
		q.pos = slices.Repeat([]int32{-1}, nodes)
	}
}

func (q *hostQueue) pushFrame(h simtime.Host, fi int32) {
	if q.n == len(q.fifo) {
		buf := make([]frameEv, max(8, 2*len(q.fifo))) // doubles to at most twice the most frames pending in a walk, once
		copy(buf[copy(buf, q.fifo[q.head:]):], q.fifo[:q.head])
		q.fifo, q.head = buf, 0
	}
	mask := len(q.fifo) - 1
	if q.n > 0 && h < q.fifo[(q.head+q.n-1)&mask].h {
		panic(fmt.Sprintf("cluster: frame event at %v queued below the FIFO's tail", h))
	}
	q.fifo[(q.head+q.n)&mask] = frameEv{h: h, fi: fi}
	q.n++
}

// next returns the earliest event: a frame event, popped (node -1), or the
// node event at the root, left there for the dispatch to reschedule or cancel.
func (q *hostQueue) next() (h simtime.Host, fi, node int32, ok bool) {
	if q.n > 0 && (len(q.heap) == 0 || q.fifo[q.head].h <= q.heap[0].h) {
		f := q.fifo[q.head]
		q.head, q.n = (q.head+1)&(len(q.fifo)-1), q.n-1
		return f.h, f.fi, -1, true
	}
	if len(q.heap) == 0 {
		return 0, 0, 0, false
	}
	return q.heap[0].h, 0, q.heap[0].node, true
}

// schedule makes node i's pending event a step or a wake at host time h.
func (q *hostQueue) schedule(i int, h simtime.Host, wake bool) {
	q.seq++
	ev := nodeEv{h: h, tie: q.seq | stepTie, node: int32(i)}
	if wake {
		ev.tie = q.seq
	}
	p := int(q.pos[i])
	if p < 0 {
		p = len(q.heap)
		q.heap = append(q.heap, ev) // grows to the largest tight partition once
	}
	q.fix(p, ev)
}

func (q *hostQueue) cancel(i int) {
	if p, last := int(q.pos[i]), len(q.heap)-1; p >= 0 {
		q.pos[i] = -1
		ev := q.heap[last]
		if q.heap = q.heap[:last]; p < last {
			q.fix(p, ev)
		}
	}
}

// fix puts ev at heap position p and sifts it to where it belongs.
func (q *hostQueue) fix(p int, ev nodeEv) {
	heap, pos := q.heap, q.pos // locals: no reload of q's fields per level
	for p > 0 && ev.before(&heap[(p-1)/2]) {
		heap[p] = heap[(p-1)/2]
		pos[heap[p].node] = int32(p)
		p = (p - 1) / 2
	}
	for c := 2*p + 1; c < len(heap); c = 2*p + 1 {
		if c+1 < len(heap) && heap[c+1].before(&heap[c]) {
			c++
		}
		if !heap[c].before(&ev) {
			break
		}
		heap[p] = heap[c]
		pos[heap[p].node] = int32(p)
		p = c
	}
	heap[p] = ev
	pos[ev.node] = int32(p)
}
