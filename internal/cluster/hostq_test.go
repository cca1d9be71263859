package cluster

import (
	"testing"

	"clustersim/internal/eventq"
	"clustersim/internal/simtime"
)

// queued is a host-queue entry as the eventq oracle holds it: a frame event
// (node -1) or a node's step or wake.
type queued struct{ node, fi int32 }

// The oracle's priorities: frames before wakes before steps at equal times.
const (
	priFrame = iota
	priWake
	priStep
)

// FuzzHostQueue replays an operation program on the event-queue walk's
// hostQueue and on eventq.Queue, the heap it replaces, and requires the same
// pop sequence. Each byte is one operation, picked by its top two bits:
//   - 0: a frame event at now + 0..7, raised to the FIFO's tail;
//   - 1: a node's schedule, a step or a wake at now + 0..3, which re-aims a
//     pending event;
//   - 2: a node's cancel;
//   - 3: a pop. A popped node event is dispatched as the engine dispatches it:
//     the next byte sends 0..3 frames at now + 0..3 and then reschedules the
//     node at now + 0..3 or cancels it.
//
// now is the host time of the last pop.
func FuzzHostQueue(f *testing.F) {
	f.Add([]byte{0x40, 0x60, 0x00, 0xC0, 0xC0, 0xC0})             // step, wake and frame tied at 0
	f.Add([]byte{0x41, 0x42, 0x64, 0xC0, 0x31, 0xC0, 0xC0, 0xC0}) // a dispatch that sends and reschedules
	f.Add([]byte{0x60, 0x61, 0x49, 0x60, 0x80, 0xC0, 0x00, 0xC0}) // a wake re-aimed, cancelled
	f.Add([]byte{0x43, 0x44, 0x40, 0x41, 0x42, 0xC0, 0xF1, 0xC0, 0x01, 0xC0, 0x00, 0xC0, 0xC0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const nodes = 5
		var q hostQueue
		q.reserve(nodes)
		var ref eventq.Queue[queued]
		handles := make([]eventq.Handle, nodes)
		var now, tail simtime.Host
		var fi int32
		frame := func(d byte) {
			tail = max(tail, now+simtime.Host(d))
			q.pushFrame(tail, fi)
			ref.PushPri(int64(tail), priFrame, queued{node: -1, fi: fi})
			fi++
		}
		schedule := func(i int, d byte, wake bool) {
			ref.Remove(handles[i])
			pri := priStep
			if wake {
				pri = priWake
			}
			h := now + simtime.Host(d)
			q.schedule(i, h, wake)
			handles[i] = ref.PushPri(int64(h), pri, queued{node: int32(i)})
		}
		cancel := func(i int) {
			ref.Remove(handles[i])
			handles[i] = eventq.Handle{}
			q.cancel(i)
		}
		for k := 0; k < len(prog) || ref.Len() > 0; k++ {
			op := byte(0xC0) // past the program: drain
			if k < len(prog) {
				op = prog[k]
			}
			switch op >> 6 {
			case 0:
				frame(op & 7)
			case 1:
				schedule(int(op&7)%nodes, op>>3&3, op&0x20 != 0)
			case 2:
				cancel(int(op&7) % nodes)
			case 3:
				h, gotFi, node, ok := q.next()
				if ok != (ref.Len() > 0) {
					t.Fatalf("op %d: hostQueue nonempty %v, oracle holds %d", k, ok, ref.Len())
				}
				if !ok {
					continue
				}
				want := ref.Pop()
				got := queued{node: node}
				if node < 0 {
					got.fi = gotFi
				}
				if int64(h) != want.Time || got != want.Payload {
					t.Fatalf("op %d: popped %+v at %d, oracle %+v at %d", k, got, h, want.Payload, want.Time)
				}
				now = h
				if node < 0 {
					continue
				}
				handles[node] = eventq.Handle{}
				var b byte // past the program: cancel
				if k+1 < len(prog) {
					k++
					b = prog[k]
				}
				for range b >> 4 & 3 {
					frame(b >> 6)
				}
				if b&1 == 0 {
					cancel(int(node))
				} else {
					schedule(int(node), b>>1&3, b&8 != 0)
				}
			}
			for i, h := range handles {
				if (q.pos[i] >= 0) != (h != eventq.Handle{}) {
					t.Fatalf("op %d: node %d pending %v in hostQueue, %v in the oracle", k, i, q.pos[i] >= 0, h != eventq.Handle{})
				}
			}
		}
		if _, _, _, ok := q.next(); ok {
			t.Fatal("hostQueue holds events the oracle has popped")
		}
	})
}

// TestHostQueueFrameBelowTailPanics pins the FIFO's one precondition.
func TestHostQueueFrameBelowTailPanics(t *testing.T) {
	var q hostQueue
	q.pushFrame(5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("a frame event below the FIFO's tail was queued")
		}
	}()
	q.pushFrame(4, 1)
}
