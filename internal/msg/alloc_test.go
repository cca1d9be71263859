package msg_test

import "testing"

// TestMessageStreamAllocs pins the allocation behaviour of the message
// path. The ceilings sit a few allocations above what the endpoint measures
// (113 / 180 / 130 allocs per run on go1.24), so per-message heap objects in
// the transport state (156 / 234 / 287 with maps for it), per-fragment
// header buffers (777 / 810, ~1.1 MB per run) or a heap object per frame
// (a run is 128 fragments) fail here.
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
		{"size-only", false, false, 121, 600_000},
		// Payload-carrying messages: bytes are dominated by the payload
		// itself (one sender-side copy per message, one receive buffer), so
		// only the allocation count separates the two paths.
		{"payload", true, false, 190, 0},
		// Reliable endpoints: acks, duplicate suppression and the sender's
		// Flush, with no per-message tracking or reassembly objects.
		{"reliable", false, true, 139, 0},
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
