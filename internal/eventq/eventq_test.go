package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	var got []string
	for q.Len() > 0 {
		got = append(got, q.Pop().Payload)
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("wrong order: %v", got)
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(42, i)
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop().Payload; got != i {
			t.Fatalf("equal-time events reordered: got %d at position %d", got, i)
		}
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	var q Queue[string]
	q.PushPri(5, 2, "low")
	q.PushPri(5, 0, "high")
	q.PushPri(5, 1, "mid")
	if q.Pop().Payload != "high" || q.Pop().Payload != "mid" || q.Pop().Payload != "low" {
		t.Error("priority tiebreak broken")
	}
}

func TestRemove(t *testing.T) {
	var q Queue[int]
	e1 := q.Push(1, 1)
	e2 := q.Push(2, 2)
	e3 := q.Push(3, 3)
	if !q.Remove(e2) {
		t.Fatal("Remove returned false for a live event")
	}
	if q.Remove(e2) {
		t.Fatal("double Remove returned true")
	}
	if q.Pop().Payload != 1 || q.Pop().Payload != 3 {
		t.Error("wrong events after removal")
	}
	if q.Remove(e1) {
		t.Error("Remove of popped event returned true")
	}
	if q.Remove(Handle{}) {
		t.Error("Remove of the zero Handle returned true")
	}
	_ = e3
}

// A handle must stay dead even after its slot is recycled by later pushes.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	var q Queue[int]
	h := q.Push(1, 1)
	q.Pop()
	h2 := q.Push(2, 2) // reuses the freed slot
	if q.Remove(h) {
		t.Fatal("stale handle removed a recycled slot's event")
	}
	if !q.Remove(h2) {
		t.Fatal("live handle on a recycled slot not removable")
	}
}

func TestPeek(t *testing.T) {
	var q Queue[int]
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue reported an item")
	}
	q.Push(9, 1)
	q.Push(4, 2)
	if tm, ok := q.PeekTime(); !ok || tm != 4 {
		t.Error("PeekTime returned wrong event")
	}
	if q.Len() != 2 {
		t.Error("PeekTime consumed an event")
	}
}

func TestClear(t *testing.T) {
	var q Queue[int]
	h := q.Push(1, 1)
	q.Push(2, 2)
	q.Clear()
	if q.Len() != 0 {
		t.Error("Clear left events behind")
	}
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime after Clear reported an item")
	}
	if q.Remove(h) {
		t.Error("Remove after Clear returned true")
	}
	q.Push(3, 3)
	if q.Pop().Payload != 3 {
		t.Error("queue unusable after Clear")
	}
}

// refEvent mirrors one pushed event in the naive reference model.
type refEvent struct {
	time int64
	pri  int
	seq  uint64
	pay  int64
}

func refLess(a, b refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// checkAgainstReference drives the queue and a naive sorted-slice reference
// through the same random push/pop/remove interleaving and fails on the
// first divergence: every pop must return exactly the reference's minimum
// by (time, priority, seq).
func checkAgainstReference(t *testing.T, r *rand.Rand, ops int) {
	t.Helper()
	var q Queue[int64]
	var ref []refEvent             // live events, unsorted
	handles := map[uint64]Handle{} // seq -> handle for random removal
	var seq uint64
	popMin := func() refEvent {
		best := 0
		for i := 1; i < len(ref); i++ {
			if refLess(ref[i], ref[best]) {
				best = i
			}
		}
		ev := ref[best]
		ref = append(ref[:best], ref[best+1:]...)
		return ev
	}
	for op := 0; op < ops; op++ {
		switch r.Intn(5) {
		case 0, 1:
			tm := int64(r.Intn(60))
			pri := r.Intn(3)
			seq++
			pay := int64(seq)
			h := q.PushPri(tm, pri, pay)
			ref = append(ref, refEvent{time: tm, pri: pri, seq: seq, pay: pay})
			handles[seq] = h
		case 2, 3:
			if q.Len() != len(ref) {
				t.Fatalf("op %d: length mismatch: queue %d, reference %d", op, q.Len(), len(ref))
			}
			if len(ref) == 0 {
				continue
			}
			want := popMin()
			got := q.Pop()
			if got.Time != want.time || got.Priority != want.pri || got.Payload != want.pay {
				t.Fatalf("op %d: pop mismatch: got (t=%d p=%d pay=%d), want (t=%d p=%d pay=%d)",
					op, got.Time, got.Priority, got.Payload, want.time, want.pri, want.pay)
			}
			delete(handles, want.seq)
		case 4:
			if len(ref) == 0 {
				continue
			}
			victim := ref[r.Intn(len(ref))]
			if !q.Remove(handles[victim.seq]) {
				t.Fatalf("op %d: Remove of live event (seq %d) returned false", op, victim.seq)
			}
			for i := range ref {
				if ref[i].seq == victim.seq {
					ref = append(ref[:i], ref[i+1:]...)
					break
				}
			}
			delete(handles, victim.seq)
		}
	}
	for len(ref) > 0 {
		want := popMin()
		got := q.Pop()
		if got.Time != want.time || got.Priority != want.pri || got.Payload != want.pay {
			t.Fatalf("drain: pop mismatch: got (t=%d p=%d pay=%d), want (t=%d p=%d pay=%d)",
				got.Time, got.Priority, got.Payload, want.time, want.pri, want.pay)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d left", q.Len())
	}
}

// Property: under random push/pop/remove interleavings the queue pops in
// exactly (time, priority, seq) order, cross-checked against a naive
// reference.
func TestPropertyAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		checkAgainstReference(t, rand.New(rand.NewSource(seed)), 800)
	}
}

// Property: a pure push-then-drain cycle yields a sorted sequence.
func TestPropertySortedDrain(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue[int]
		for i, tm := range times {
			q.Push(int64(tm), i)
		}
		var got []int64
		for q.Len() > 0 {
			got = append(got, q.Pop().Time)
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Steady-state operation must not allocate: once the arena has grown to the
// working depth, push/pop/remove churn recycles slots through the free list.
func TestZeroSteadyStateAllocs(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 256; i++ { // warm the arena past the churn depth
		q.Push(int64(i), i)
	}
	for q.Len() > 64 {
		q.Pop()
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		h := q.Push(int64(i%977), i)
		q.Pop()
		q.Push(int64(i%983), i)
		if !q.Remove(h) {
			// h may legitimately have been the event just popped.
			q.Pop()
		} else {
			q.Pop()
		}
		q.Push(int64(i%991), i)
	})
	if allocs != 0 {
		t.Fatalf("steady-state churn allocated %.1f times per op, want 0", allocs)
	}
}
