// Package eventq provides the discrete-event priority queue used by the
// co-simulation engine.
//
// Events are ordered by (time, priority, insertion sequence); the sequence
// tiebreak makes the processing order fully deterministic, which the engine
// relies on for bit-identical replays of the same seed.
//
// The queue is a value-based 4-ary heap over an internal slot arena: the
// heap holds slot indices, slots are recycled through an intrusive free
// list, and callers address pending events through Handle values instead of
// pointers. After warm-up the engine's push/pop/remove churn therefore does
// zero allocations — nothing per event escapes to the garbage collector.
package eventq

// Handle identifies a pending event for Remove. The zero Handle is never
// live, so it doubles as the "no event" sentinel. A Handle stays uniquely
// bound to the push that created it: once the event is popped or removed,
// the handle is dead forever, even after its slot is recycled.
type Handle struct {
	idx int32
	seq uint64
}

// Item is a scheduled event as returned by Pop. Lower Time runs
// first; among equal times, lower Priority runs first; among equal
// priorities, earlier-scheduled runs first.
type Item[T any] struct {
	Time     int64
	Priority int
	Payload  T
}

// slot is the arena cell backing one pending event. A free slot has pos ==
// -1 and reuses its time field as the intrusive free-list link (index+1 of
// the next free slot, 0 terminated).
type slot[T any] struct {
	time    int64
	seq     uint64
	pri     int32
	pos     int32 // index into Queue.heap, or -1 when free
	payload T
}

// Queue is a deterministic event queue. The zero value is ready to use.
type Queue[T any] struct {
	slots []slot[T]
	heap  []int32 // 4-ary heap of slot indices
	free  int32   // free-list head as index+1 (0 = empty)
	seq   uint64  // last sequence number issued (0 = none)
}

// Len returns the number of pending events.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Push schedules payload at the given time with priority 0 and returns the
// event's handle (usable with Remove).
func (q *Queue[T]) Push(time int64, payload T) Handle {
	return q.PushPri(time, 0, payload)
}

// PushPri schedules payload at the given time and priority.
func (q *Queue[T]) PushPri(time int64, priority int, payload T) Handle {
	i := q.alloc()
	q.seq++
	s := &q.slots[i]
	s.time = time
	s.pri = int32(priority)
	s.seq = q.seq
	s.payload = payload
	s.pos = int32(len(q.heap))
	q.heap = append(q.heap, i) // grows to the steady-state watermark once; reuse is allocation-free
	q.up(len(q.heap) - 1)
	return Handle{idx: i, seq: q.seq}
}

// Pop removes and returns the earliest event. It panics on an empty queue;
// callers check Len first.
func (q *Queue[T]) Pop() Item[T] {
	i := q.heap[0]
	s := &q.slots[i]
	it := Item[T]{Time: s.time, Priority: int(s.pri), Payload: s.payload}
	q.deleteAt(0)
	return it
}

// PeekTime returns the earliest event's time without removing it or copying
// its payload; ok is false on an empty queue.
func (q *Queue[T]) PeekTime() (time int64, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.slots[q.heap[0]].time, true
}

// PopInto is Pop for a large payload: it moves the earliest event's payload
// into *dst instead of returning it in an Item, and returns the event's time.
func (q *Queue[T]) PopInto(dst *T) (time int64) {
	s := &q.slots[q.heap[0]]
	time, *dst = s.time, s.payload
	q.deleteAt(0)
	return time
}

// Remove cancels a previously pushed event. Removing an event twice, one
// already popped, or the zero Handle reports false.
func (q *Queue[T]) Remove(h Handle) bool {
	if h.seq == 0 || int(h.idx) >= len(q.slots) {
		return false
	}
	s := &q.slots[h.idx]
	if s.pos < 0 || s.seq != h.seq {
		return false
	}
	q.deleteAt(int(s.pos))
	return true
}

// Clear drops all pending events and invalidates all handles. Capacity is
// retained, so a cleared queue stays allocation-free.
func (q *Queue[T]) Clear() {
	clear(q.slots) // drop payload references
	q.slots = q.slots[:0]
	q.heap = q.heap[:0]
	q.free = 0
}

// alloc returns a free slot index, recycling before growing.
func (q *Queue[T]) alloc() int32 {
	if q.free != 0 {
		i := q.free - 1
		q.free = int32(q.slots[i].time)
		return i
	}
	q.slots = append(q.slots, slot[T]{}) // slot arena grows to the high-water mark once, then recycles via the free list
	return int32(len(q.slots) - 1)
}

// release puts slot i on the free list and drops its payload reference so
// the queue never keeps popped payloads alive.
func (q *Queue[T]) release(i int32) {
	s := &q.slots[i]
	var zero T
	s.payload = zero
	s.pos = -1
	s.time = int64(q.free)
	q.free = i + 1
}

// deleteAt removes the event at heap position p and releases its slot.
func (q *Queue[T]) deleteAt(p int) {
	i := q.heap[p]
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if p < n {
		q.heap[p] = last
		q.slots[last].pos = int32(p)
		q.down(p)
		if int(q.slots[last].pos) == p {
			q.up(p)
		}
	}
	q.release(i)
}

// less orders slot a before slot b by (time, priority, seq).
func (q *Queue[T]) less(a, b int32) bool {
	sa, sb := &q.slots[a], &q.slots[b]
	if sa.time != sb.time {
		return sa.time < sb.time
	}
	if sa.pri != sb.pri {
		return sa.pri < sb.pri
	}
	return sa.seq < sb.seq
}

// up restores the heap property from position p toward the root.
func (q *Queue[T]) up(p int) {
	id := q.heap[p]
	for p > 0 {
		parent := (p - 1) / 4
		if !q.less(id, q.heap[parent]) {
			break
		}
		q.heap[p] = q.heap[parent]
		q.slots[q.heap[p]].pos = int32(p)
		p = parent
	}
	q.heap[p] = id
	q.slots[id].pos = int32(p)
}

// down restores the heap property from position p toward the leaves.
func (q *Queue[T]) down(p int) {
	id := q.heap[p]
	n := len(q.heap)
	for {
		first := 4*p + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.less(q.heap[c], q.heap[best]) {
				best = c
			}
		}
		if !q.less(q.heap[best], id) {
			break
		}
		q.heap[p] = q.heap[best]
		q.slots[q.heap[p]].pos = int32(p)
		p = best
	}
	q.heap[p] = id
	q.slots[id].pos = int32(p)
}
