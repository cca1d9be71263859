package msg_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// run executes programs as a cluster under the given quantum and fails on
// error.
func run(t *testing.T, q simtime.Duration, progs ...guest.Program) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Nodes:    len(progs),
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: q} },
		Program:  func(rank, size int) guest.Program { return progs[rank] },
		MaxGuest: simtime.Guest(30 * simtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 25000) // 3 jumbo fragments
	r := rng.New(1)
	for i := range payload {
		payload[i] = byte(r.Uint64())
	}
	var got []byte
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			msg.New(p).SendPayload(1, 7, payload)
			return nil
		},
		func(p *guest.Proc) error {
			m := msg.New(p).Recv(0, 7)
			got = m.Payload
			return nil
		},
	)
	if !bytes.Equal(got, payload) {
		t.Error("payload corrupted in transit")
	}
}

func TestZeroSizeMessage(t *testing.T) {
	ok := false
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			msg.New(p).Send(1, 3, 0)
			return nil
		},
		func(p *guest.Proc) error {
			m := msg.New(p).Recv(0, 3)
			ok = m.Size == 0 && m.Src == 0 && m.Tag == 3
			return nil
		},
	)
	if !ok {
		t.Error("zero-size message mangled")
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	const n = 50
	var order []int
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p)
			for i := 0; i < n; i++ {
				ep.SendPayload(1, 9, []byte{byte(i)})
			}
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p)
			for i := 0; i < n; i++ {
				m := ep.Recv(0, 9)
				order = append(order, int(m.Payload[0]))
			}
			return nil
		},
	)
	for i, v := range order {
		if v != i {
			t.Fatalf("messages reordered: position %d got %d", i, v)
		}
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	var tagged, any int
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p)
			ep.SendPayload(2, 1, []byte{11})
			ep.SendPayload(2, 2, []byte{22})
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p)
			ep.SendPayload(2, 2, []byte{33})
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p)
			// Tag 2 from rank 1 specifically, even though other traffic
			// arrives first.
			m := ep.Recv(1, 2)
			tagged = int(m.Payload[0])
			// Then anything.
			m2 := ep.Recv(msg.Any, msg.Any)
			any = int(m2.Payload[0])
			return nil
		},
	)
	if tagged != 33 {
		t.Errorf("matched wrong message: %d", tagged)
	}
	if any != 11 && any != 22 {
		t.Errorf("Any recv returned %d", any)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	// Above the eager threshold the transfer needs RTS/CTS; verify content
	// and that control frames flowed.
	payload := make([]byte, msg.DefaultEagerMax*2)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var got []byte
	var rts, cts int
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p)
			ep.SendPayload(1, 5, payload)
			s, _, r, _ := ep.Stats()
			if s == 0 || r != 1 {
				return fmt.Errorf("sender stats: frames=%d rts=%d", s, r)
			}
			rts = r
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p)
			m := ep.Recv(0, 5)
			got = m.Payload
			_, _, _, c := ep.Stats()
			cts = c
			return nil
		},
	)
	if !bytes.Equal(got, payload) {
		t.Error("rendezvous payload corrupted")
	}
	if rts != 1 || cts != 1 {
		t.Errorf("expected 1 RTS and 1 CTS, got %d/%d", rts, cts)
	}
}

func TestBidirectionalRendezvousNoDeadlock(t *testing.T) {
	// Both sides send a rendezvous-sized message before receiving — the
	// classic head-on exchange that must not deadlock.
	size := msg.DefaultEagerMax + 1
	mk := func(peer int) guest.Program {
		return func(p *guest.Proc) error {
			ep := msg.New(p)
			ep.Send(peer, 1, size)
			m := ep.Recv(peer, 1)
			if m.Size != size {
				return fmt.Errorf("got %d bytes, want %d", m.Size, size)
			}
			return nil
		}
	}
	run(t, simtime.Microsecond, mk(1), mk(0))
}

func TestLoopback(t *testing.T) {
	run(t, simtime.Microsecond, func(p *guest.Proc) error {
		ep := msg.New(p)
		ep.SendPayload(0, 4, []byte("self"))
		m := ep.Recv(0, 4)
		if string(m.Payload) != "self" {
			return fmt.Errorf("loopback payload %q", m.Payload)
		}
		return nil
	})
}

// The sender may reuse its buffer once SendPayload returns, on the loopback
// path as on the network one.
func TestLoopbackPayloadIsCopied(t *testing.T) {
	run(t, simtime.Microsecond, func(p *guest.Proc) error {
		ep := msg.New(p)
		buf := []byte("self")
		ep.SendPayload(0, 4, buf)
		copy(buf, "XXXX")
		if m := ep.Recv(0, 4); string(m.Payload) != "self" {
			return fmt.Errorf("loopback payload %q, want \"self\"", m.Payload)
		}
		return nil
	})
}

func TestRecvDeadlineTimeout(t *testing.T) {
	run(t, simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p)
			if m, ok := ep.RecvDeadline(1, 1, p.Now().Add(50*simtime.Microsecond)); ok {
				return fmt.Errorf("unexpected message %v", m)
			}
			return nil
		},
		func(p *guest.Proc) error { return nil }, // silent peer
	)
}

// Property: any random sequence of message sizes arrives exactly once, in
// order, with correct sizes — independent of the quantum used. This is the
// paper's observation that functional behaviour is unaffected by time skew.
func TestPropertyDeliveryUnderAnyQuantum(t *testing.T) {
	f := func(sizes []uint16, bigQ bool) bool {
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		if len(sizes) == 0 {
			return true
		}
		q := simtime.Microsecond
		if bigQ {
			q = 500 * simtime.Microsecond
		}
		var got []int
		run(t, q,
			func(p *guest.Proc) error {
				ep := msg.New(p)
				for _, s := range sizes {
					ep.Send(1, 2, int(s))
				}
				return nil
			},
			func(p *guest.Proc) error {
				ep := msg.New(p)
				for range sizes {
					got = append(got, ep.Recv(0, 2).Size)
				}
				if ep.Pending() != 0 || ep.Incomplete() != 0 {
					return fmt.Errorf("leftover state: %d ready, %d partial", ep.Pending(), ep.Incomplete())
				}
				return nil
			},
		)
		if len(got) != len(sizes) {
			return false
		}
		for i := range got {
			if got[i] != int(sizes[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
