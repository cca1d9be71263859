package msg_test

import (
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/simtime"
)

// TestMessageStreamAllocs pins the allocation behaviour of the message
// path. The ceilings sit a few allocations above what the endpoint measures
// (108 / 174 / 125 allocs per run on go1.24), so per-message heap objects in
// the transport state (156 / 234 / 287 with maps for it), per-fragment
// header buffers (777 / 810, ~1.1 MB per run) or a heap object per frame
// (a run is 128 fragments) fail here. A run has only 32 messages, so
// TestMessagePingPongAllocs pins the per-message cost.
func TestMessageStreamAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark is not short")
	}
	cases := []struct {
		name              string
		payload, reliable bool
		maxAllocs         int64
		maxBytes          int64
	}{
		// Size-only messages (what the paper workloads send): the old path
		// allocated header buffers with payload-sized capacity.
		{"size-only", false, false, 116, 600_000},
		// Payload-carrying messages: bytes are dominated by the payload
		// itself (one sender-side copy per message, one receive buffer), so
		// only the allocation count separates the two paths.
		{"payload", true, false, 184, 0},
		// Reliable endpoints: acks, duplicate suppression and the sender's
		// Flush, with no per-message tracking or reassembly objects.
		{"reliable", false, true, 134, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := testing.Benchmark(func(b *testing.B) { benchStream(b, c.payload, c.reliable) })
			if got := res.AllocsPerOp(); got > c.maxAllocs {
				t.Errorf("message stream: %d allocs/op, want <= %d", got, c.maxAllocs)
			}
			if got := res.AllocedBytesPerOp(); c.maxBytes > 0 && got > c.maxBytes {
				t.Errorf("message stream: %d B/op, want <= %d", got, c.maxBytes)
			}
		})
	}
}

// TestMessagePingPongAllocs pins that a message costs no heap allocation of
// its own: a size-only ping-pong of 1024 round trips allocates exactly what
// one of 64 does, so everything a run allocates is set-up. A message carved
// from a heap block, held behind a pointer or in a map shows up as a
// difference.
func TestMessagePingPongAllocs(t *testing.T) {
	allocs := func(trips int) float64 {
		pingPong := func(p *guest.Proc) error {
			ep, peer := msg.New(p), 1-p.Rank()
			for i := 0; i < trips; i++ {
				if p.Rank() == 0 {
					ep.Send(peer, 1, 1024)
					ep.Recv(peer, 1)
				} else {
					ep.Recv(peer, 1)
					ep.Send(peer, 1, 1024)
				}
			}
			return nil
		}
		return testing.AllocsPerRun(5, func() { run(t, 100*simtime.Microsecond, pingPong, pingPong) })
	}
	short, long := allocs(64), allocs(1024)
	t.Logf("64 round trips: %v allocs, 1024: %v", short, long)
	if short != long {
		t.Errorf("a ping-pong of 1024 round trips allocates %v times, one of 64 %v: messages allocate", long, short)
	}
}
