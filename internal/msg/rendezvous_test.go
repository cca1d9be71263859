package msg

import (
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// A retransmitted RTS is granted twice, and the second CTS arrives after the
// transfer it names has gone. It is stale: it must not release the
// endpoint's next rendezvous send, whose data may leave only after its own
// grant. Rank 1 grants by hand, holding the second RTS for a millisecond, and
// counts the second message's fragments that arrive before it answers.
func TestStaleCTSDoesNotReleaseNextRendezvous(t *testing.T) {
	const size = DefaultEagerMax + 1
	var early, got, recvd int
	grant := func(p *guest.Proc, id uint64) {
		p.SendFrame(pkt.Frame{Dst: pkt.NodeMAC(0), Proto: pkt.ProtoCtrl, Size: headerBytes,
			Msg: pkt.Header{Kind: kindCTS, ID: id, Size: size}})
	}
	_, err := cluster.Run(cluster.Config{
		Nodes:  2,
		Guest:  guest.DefaultConfig(),
		Net:    netmodel.Paper(),
		Host:   host.DefaultParams(),
		Policy: func() quantum.Policy { return quantum.Fixed{Q: 10 * simtime.Microsecond} },
		Program: func(rank, _ int) guest.Program {
			if rank == 0 {
				return func(p *guest.Proc) error {
					ep := New(p)
					ep.Send(1, 1, size)
					ep.Send(1, 2, size)
					_, recvd, _, _ = ep.Stats()
					return nil
				}
			}
			return func(p *guest.Proc) error {
				var granted simtime.Guest
				for got < size {
					a := p.Recv()
					h := a.Frame.Msg
					switch {
					case h.Kind == kindRTS && h.ID == 1:
						grant(p, 1)
						grant(p, 1) // the RTS's retransmission, granted again
					case h.Kind == kindRTS && h.ID == 2:
						p.Sleep(simtime.Millisecond)
						granted = p.Now()
						grant(p, 2)
					case h.Kind == kindData && h.ID == 2:
						if granted == 0 || a.Time < granted {
							early++
						}
						got += int(h.Frag)
					}
				}
				return nil
			}
		},
		MaxGuest: simtime.Guest(simtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if early > 0 {
		t.Errorf("%d fragments of the second message arrived before its CTS was sent", early)
	}
	if recvd != 3 {
		t.Errorf("sender handled %d frames, want 3 (two grants of the first RTS, one of the second)", recvd)
	}
}
