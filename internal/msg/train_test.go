package msg_test

import (
	"bytes"
	"fmt"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// A message leaves as one frame train and lands through the sink: the
// fragment count at the size boundaries (zero bytes is one header-only frame,
// k full chunks are k frames, not k+1), each fragment counted once on either
// side whether the sink absorbed it or the workload handled it, and the
// payload intact across the train. A message above DefaultEagerMax adds its
// rendezvous handshake: one RTS frame each way counted by the sender and the
// receiver, plus the CTS on the wire.
func TestFragmentTrain(t *testing.T) {
	const chunk = pkt.DefaultMTU - 40
	cfg := msg.DefaultConfig()
	for _, c := range []struct{ size, frames int }{
		{0, 1}, {1, 1}, {chunk, 1}, {chunk + 1, 2}, {3 * chunk, 3}, {3*chunk + 1, 4}, {64 * chunk, 64},
	} {
		for _, withPayload := range []bool{false, true} {
			t.Run(fmt.Sprintf("%d bytes payload=%v", c.size, withPayload), func(t *testing.T) {
				var payload, got []byte
				if withPayload {
					payload = make([]byte, c.size)
					for i := range payload {
						payload[i] = byte(i * 7)
					}
				}
				var sent, recvd int
				res := run(t, simtime.Microsecond,
					func(p *guest.Proc) error {
						ep := msg.NewWithConfig(p, cfg)
						if withPayload {
							ep.SendPayload(1, 3, payload)
						} else {
							ep.Send(1, 3, c.size)
						}
						sent, _, _, _ = ep.Stats()
						return nil
					},
					func(p *guest.Proc) error {
						ep := msg.NewWithConfig(p, cfg)
						m := ep.Recv(0, 3)
						if m.Size != c.size || ep.Incomplete() != 0 {
							return fmt.Errorf("received %d bytes with %d messages still partial", m.Size, ep.Incomplete())
						}
						got = m.Payload
						_, recvd, _, _ = ep.Stats()
						return nil
					},
				)
				rts := 0
				if c.size > msg.DefaultEagerMax {
					rts = 1
				}
				if sent != c.frames+rts || recvd != c.frames+rts || res.Stats.Packets != c.frames+2*rts {
					t.Errorf("%d frames sent, %d received, %d on the wire, want %d data frames and %d RTS", sent, recvd, res.Stats.Packets, c.frames, rts)
				}
				if !bytes.Equal(got, payload) {
					t.Error("payload corrupted in transit")
				}
			})
		}
	}
}

// TestMessageResumes is the regression guard for the workload handshake: a
// 64-fragment message costs a constant number of switches into the sender's
// and the receiver's workload — the rendezvous handshake and one per side for
// the data — not one per fragment as it did when every fragment was its own
// Proc.Send and Proc.RecvDeadline (2.00 per frame). A reliable endpoint's
// sink declines every frame, so its receiver still pays one per fragment.
func TestMessageResumes(t *testing.T) {
	const frames = 64
	const size = frames * (pkt.DefaultMTU - 40)
	for _, reliable := range []bool{false, true} {
		cfg := msg.DefaultConfig()
		cfg.Reliable = reliable
		var tx, rx int
		res := run(t, simtime.Microsecond,
			func(p *guest.Proc) error {
				ep := msg.NewWithConfig(p, cfg)
				ep.Send(1, 1, size)
				err := ep.Flush()
				tx = p.Resumes()
				return err
			},
			func(p *guest.Proc) error {
				ep := msg.NewWithConfig(p, cfg)
				ep.Recv(0, 1)
				rx = p.Resumes()
				ep.Drain(10 * simtime.Microsecond)
				return nil
			},
		)
		perFrame := float64(tx+rx) / float64(res.Stats.Packets)
		t.Logf("reliable=%v: %d packets, %d sender + %d receiver resumes, %.3f per frame", reliable, res.Stats.Packets, tx, rx, perFrame)
		if reliable {
			if rx < frames {
				t.Errorf("reliable receiver resumed %d times for %d fragments: its sink must decline every frame", rx, frames)
			}
			continue
		}
		if tx > 8 || rx > 8 {
			t.Errorf("%d-fragment message cost %d sender and %d receiver resumes, want O(1) (<= 8 each)", frames, tx, rx)
		}
		if perFrame > 0.45 {
			t.Errorf("%.3f resumes per frame, want <= 0.45", perFrame)
		}
	}
}
