package guest

import (
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// rxQueue is a node's receive queue: frames in arrival-time order, then by
// int32(Frame.ID), then in delivery order. Frames live in one arena of
// 128-byte cells, its one growth chain, and move in and out once. Two lanes
// of cell indices keep the order: a sorted run, a ring that an arrival at or
// after its tail (nearly every one) appends to in O(1), and a binary heap for
// the rest, O(log depth). A pop takes the smaller of their heads.
type rxQueue struct {
	cells   []rxCell
	free    int32  // free-list head as index+1 (0: none)
	seq     uint64 // delivery sequence
	head, n int    // the run: n entries of the run lane's ring from head
	nh      int    // the heap: the heap lane's first nh entries
}

// rxCell is a frame, its arrival time and delivery sequence (the free list's
// link while free); run and heap are the lanes' entries at the cell's index.
type rxCell struct {
	f         pkt.Frame
	t         simtime.Guest
	seq       uint64
	run, heap int32
}

// before orders cell a's frame before cell b's.
func (q *rxQueue) before(a, b int32) bool {
	x, y := &q.cells[a], &q.cells[b]
	xi, yi := int32(x.f.ID), int32(y.f.ID)
	return x.t < y.t || x.t == y.t && (xi < yi || xi == yi && x.seq < y.seq)
}

func (q *rxQueue) push(t simtime.Guest, f *pkt.Frame) {
	if q.free == 0 {
		q.grow()
	}
	s := q.free - 1
	c := &q.cells[s]
	q.free = int32(c.seq)
	q.seq++
	c.f, c.t, c.seq = *f, t, q.seq
	if q.n > 0 {
		// The latest delivery sorts after a tail equal in time and ID.
		if tail := &q.cells[q.cells[q.runPos(q.n-1)].run]; t < tail.t || t == tail.t && int32(f.ID) < int32(tail.f.ID) {
			p := q.nh
			for ; p > 0 && q.before(s, q.cells[(p-1)/2].heap); p = (p - 1) / 2 {
				q.cells[p].heap = q.cells[(p-1)/2].heap
			}
			q.cells[p].heap = s
			q.nh++
			return
		}
	}
	q.cells[q.runPos(q.n)].run = s
	q.n++
}

// runPos is the run lane position of the run's k-th entry.
func (q *rxQueue) runPos(k int) int {
	if p := q.head + k; p < len(q.cells) {
		return p
	}
	return q.head + k - len(q.cells)
}

// grow enlarges the full arena as append would and frees the new cells.
func (q *rxQueue) grow() {
	old := q.cells
	cells := append(old, rxCell{}) // grows to the node's deepest queue once, then recycles
	cells = cells[:cap(cells)]
	for k := 0; k < q.n; k++ {
		cells[k].run = old[q.runPos(k)].run // append copied old and left it intact
	}
	q.cells, q.head = cells, 0
	for i := len(cells) - 1; i >= len(old); i-- {
		cells[i].seq, q.free = uint64(q.free), int32(i+1)
	}
}

// peek returns the earliest arrival time, GuestInfinity on an empty queue.
func (q *rxQueue) peek() simtime.Guest {
	t := simtime.GuestInfinity
	if q.n > 0 {
		t = q.cells[q.cells[q.head].run].t
	}
	if q.nh > 0 {
		t = simtime.MinGuest(t, q.cells[q.cells[0].heap].t)
	}
	return t
}

// pop moves the earliest frame into *dst and returns its arrival time; the
// queue must not be empty.
func (q *rxQueue) pop(dst *pkt.Frame) simtime.Guest {
	s := q.cells[0].heap
	if q.n > 0 && (q.nh == 0 || q.before(q.cells[q.head].run, s)) {
		s, q.head, q.n = q.cells[q.head].run, q.runPos(1), q.n-1
	} else {
		q.nh--
		last, p := q.cells[q.nh].heap, 0
		for c := 1; c < q.nh; c = 2*p + 1 {
			if c+1 < q.nh && q.before(q.cells[c+1].heap, q.cells[c].heap) {
				c++
			}
			if !q.before(q.cells[c].heap, last) {
				break
			}
			q.cells[p].heap, p = q.cells[c].heap, c
		}
		q.cells[p].heap = last
	}
	c := &q.cells[s]
	*dst = c.f
	c.f.Data = nil // keep no popped payload alive
	c.seq, q.free = uint64(q.free), s+1
	return c.t
}
