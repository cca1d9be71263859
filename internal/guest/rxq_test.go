package guest

import (
	"testing"

	"clustersim/internal/eventq"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// rxIDs are the frame IDs FuzzRecvQueue draws from: equal low 32 bits under
// different high ones (the sender's node id sits above bit 40), and low
// halves that are negative as an int32.
var rxIDs = [8]uint64{0, 1, 1<<40 | 1, 0x80000000, 0xFFFFFFFF, 2, 5<<40 | 0xFFFFFFFF, 3<<40 | 0x80000000}

// FuzzRecvQueue replays a program of deliveries and receives on a node's
// receive queue and on eventq.Queue, the heap it replaces, keyed as Deliver
// keyed it: (arrival, int(Frame.ID)), which eventq stores as an int32. Both
// must yield the same frames in the same order. A byte below 0x80 delivers
// frame ID rxIDs[b&7] arriving at b>>3; any other receives.
func FuzzRecvQueue(f *testing.F) {
	// Equal (time, ID) keys on both sides of an out-of-order insert: two in
	// the run, then one that sorts below the tail and ties the run's head.
	f.Add([]byte{0x29, 0x29, 0x48, 0x29, 0x29, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add([]byte{0x78, 0x10, 0x11, 0x13, 0x14, 0x10, 0x80, 0x12, 0x80, 0x80, 0x80})
	f.Add([]byte{0x3B, 0x3C, 0x3E, 0x3F, 0x3A, 0x3D, 0x8F, 0x38, 0x3B, 0x80})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var q rxQueue
		var ref eventq.Queue[pkt.Frame]
		var got, want pkt.Frame
		for k := 0; k <= len(prog) || ref.Len() > 0; k++ {
			if k < len(prog) && prog[k] < 0x80 {
				b := prog[k]
				fr := pkt.Frame{ID: rxIDs[b&7], Size: k}
				q.push(simtime.Guest(b>>3), &fr)
				ref.PushPri(int64(b>>3), int(fr.ID), fr)
				continue
			}
			wt, ok := ref.PeekTime()
			if gt := q.peek(); !ok && gt != simtime.GuestInfinity || ok && int64(gt) != wt {
				t.Fatalf("op %d: peek %v, oracle (%d, %v)", k, gt, wt, ok)
			}
			if !ok {
				continue
			}
			wt = ref.PopInto(&want)
			if gt := q.pop(&got); int64(gt) != wt || got.ID != want.ID || got.Size != want.Size {
				t.Fatalf("op %d: received delivery %d (ID %#x) at %v, oracle delivery %d (ID %#x) at %d",
					k, got.Size, got.ID, gt, want.Size, want.ID, wt)
			}
		}
		if q.peek() != simtime.GuestInfinity {
			t.Fatal("the receive queue holds frames the oracle has yielded")
		}
	})
}

// TestRecvQueueZeroSteadyStateAllocs pins the receive queue's cost property:
// once its arena has grown to the queue's depth, delivering and receiving
// allocate nothing, out-of-order arrivals (every tenth here) included.
func TestRecvQueueZeroSteadyStateAllocs(t *testing.T) {
	var q rxQueue
	var out pkt.Frame
	fr := pkt.Frame{Size: 1500, Data: make([]byte, 8)}
	t0, k := simtime.Guest(0), 0
	churn := func() {
		k++
		t0 += 10
		at := t0 + 640
		if k%10 == 0 {
			at -= 200 // sorts before the run's tail
		}
		fr.ID = uint64(k)
		q.push(at, &fr)
		q.pop(&out)
	}
	for range 64 {
		t0 += 10
		q.push(t0+640, &fr)
	}
	for range 1000 {
		churn()
	}
	if allocs := testing.AllocsPerRun(1000, churn); allocs != 0 {
		t.Fatalf("receive queue churn allocates %v per push and pop, want 0", allocs)
	}
}
