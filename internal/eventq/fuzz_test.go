package eventq

import "testing"

// FuzzQueueOps interprets the fuzz input as a program of push/pop/remove
// operations and cross-checks the queue against a naive reference model:
// pops (Pop, or PeekTime and PopInto on odd opcodes) must return exactly the
// (time, priority, seq) minimum, lengths must track, and stale handles must
// never remove anything.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0x10, 0x21, 0x80, 0x32, 0xC0, 0x80})
	f.Add([]byte{0x00, 0x00, 0x00, 0x80, 0x80, 0x80})
	f.Add([]byte{0x3F, 0x7F, 0xBF, 0xFF, 0x01, 0x81})
	f.Fuzz(func(t *testing.T, program []byte) {
		var q Queue[uint64]
		var ref []refEvent
		var handles []Handle // parallel to ref
		var seq uint64
		for _, op := range program {
			switch op >> 6 {
			case 0, 1: // push: low 6 bits pick (time, priority)
				tm := int64(op & 0x3F >> 2)
				pri := int(op & 0x03)
				seq++
				h := q.PushPri(tm, pri, seq)
				ref = append(ref, refEvent{time: tm, pri: pri, seq: seq, pay: int64(seq)})
				handles = append(handles, h)
			case 2: // pop
				if q.Len() != len(ref) {
					t.Fatalf("length mismatch: queue %d, reference %d", q.Len(), len(ref))
				}
				if len(ref) == 0 {
					if _, ok := q.PeekTime(); ok {
						t.Fatal("PeekTime on an empty queue reported an event")
					}
					continue
				}
				best := 0
				for i := 1; i < len(ref); i++ {
					if refLess(ref[i], ref[best]) {
						best = i
					}
				}
				want := ref[best]
				var got Item[uint64]
				if op&1 == 0 {
					got = q.Pop()
				} else if tm, ok := q.PeekTime(); !ok || tm != want.time {
					t.Fatalf("PeekTime = (%d, %v), want %d", tm, ok, want.time)
				} else {
					got.Time, got.Priority = q.PopInto(&got.Payload), want.pri
				}
				if got.Time != want.time || got.Priority != want.pri || got.Payload != uint64(want.pay) {
					t.Fatalf("pop mismatch: got (t=%d p=%d pay=%d), want (t=%d p=%d pay=%d)",
						got.Time, got.Priority, got.Payload, want.time, want.pri, want.pay)
				}
				stale := handles[best]
				ref = append(ref[:best], ref[best+1:]...)
				handles = append(handles[:best], handles[best+1:]...)
				if q.Remove(stale) {
					t.Fatal("Remove of a popped event's handle returned true")
				}
			case 3: // remove: low bits pick the victim
				if len(ref) == 0 {
					continue
				}
				i := int(op&0x3F) % len(ref)
				if !q.Remove(handles[i]) {
					t.Fatalf("Remove of live event (seq %d) returned false", ref[i].seq)
				}
				if q.Remove(handles[i]) {
					t.Fatal("double Remove returned true")
				}
				ref = append(ref[:i], ref[i+1:]...)
				handles = append(handles[:i], handles[i+1:]...)
			}
		}
		for len(ref) > 0 {
			best := 0
			for i := 1; i < len(ref); i++ {
				if refLess(ref[i], ref[best]) {
					best = i
				}
			}
			want := ref[best]
			got := q.Pop()
			if got.Time != want.time || got.Priority != want.pri || got.Payload != uint64(want.pay) {
				t.Fatalf("drain mismatch: got (t=%d p=%d pay=%d), want (t=%d p=%d pay=%d)",
					got.Time, got.Priority, got.Payload, want.time, want.pri, want.pay)
			}
			ref = append(ref[:best], ref[best+1:]...)
			handles = append(handles[:best], handles[best+1:]...)
		}
		if q.Len() != 0 {
			t.Fatalf("queue not empty after drain: %d left", q.Len())
		}
	})
}
