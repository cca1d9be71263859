package msg_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"clustersim/internal/cluster"
	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/mpi"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// runLossy executes programs under frame loss.
func runLossy(t *testing.T, lossRate float64, lossSeed uint64, q simtime.Duration, progs ...guest.Program) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Nodes:    len(progs),
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: q} },
		Program:  func(rank, size int) guest.Program { return progs[rank] },
		MaxGuest: simtime.Guest(60 * simtime.Second),
		Faults:   &faults.Plan{Seed: lossSeed, Default: faults.Link{Loss: lossRate}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func reliableCfg() msg.Config {
	c := msg.DefaultConfig()
	c.Reliable = true
	return c
}

func TestReliableStreamSurvivesLoss(t *testing.T) {
	const n = 40
	payloads := make([][]byte, n)
	r := rng.New(99)
	for i := range payloads {
		payloads[i] = make([]byte, 1+r.Intn(20000))
		for j := range payloads[i] {
			payloads[i][j] = byte(r.Uint64())
		}
	}
	var got [][]byte
	res := runLossy(t, 0.15, 7, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			for _, pl := range payloads {
				ep.SendPayload(1, 5, pl)
			}
			if err := ep.Flush(); err != nil {
				return fmt.Errorf("Flush after a recoverable loss run: %w", err)
			}
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			for range payloads {
				m := ep.Recv(0, 5)
				got = append(got, m.Payload)
			}
			// Keep re-acking until the sender's Flush has surely finished.
			ep.Drain(30 * simtime.Millisecond)
			return nil
		},
	)
	if res.Stats.Dropped == 0 {
		t.Fatal("loss injection dropped nothing; the test proves nothing")
	}
	if len(got) != n {
		t.Fatalf("received %d of %d messages", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("message %d corrupted or reordered", i)
		}
	}
	t.Logf("dropped %d frames; stream intact", res.Stats.Dropped)
}

func TestReliableRendezvousSurvivesLoss(t *testing.T) {
	payload := make([]byte, msg.DefaultEagerMax*3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	var retr int
	res := runLossy(t, 0.2, 3, 100*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			ep.SendPayload(1, 9, payload)
			ep.Flush()
			_, retransmits, _ := ep.ReliabilityStats()
			retr = retransmits
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			got = ep.Recv(0, 9).Payload
			ep.Drain(30 * simtime.Millisecond)
			return nil
		},
	)
	if !bytes.Equal(got, payload) {
		t.Fatal("rendezvous payload corrupted under loss")
	}
	if res.Stats.Dropped > 0 && retr == 0 {
		t.Error("frames were dropped but nothing was retransmitted")
	}
}

func TestUnreliableLosesUnderLoss(t *testing.T) {
	// Sanity check of the loss injector itself: without reliability, a
	// lossy stream must come up short.
	const n = 60
	received := 0
	runLossy(t, 0.3, 11, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p, pkt.DefaultMTU)
			for i := 0; i < n; i++ {
				ep.Send(1, 1, 100)
			}
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p, pkt.DefaultMTU)
			for {
				_, ok := ep.RecvDeadline(0, 1, p.Now().Add(2*simtime.Millisecond))
				if !ok {
					return nil
				}
				received++
			}
		},
	)
	if received >= n {
		t.Fatalf("all %d messages survived 30%% loss without reliability", n)
	}
}

func TestReliableNoLossNoRetransmits(t *testing.T) {
	// On the paper's perfect switch the reliable machinery must be silent
	// except for acks.
	runLossy(t, 0, 0, simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			for i := 0; i < 10; i++ {
				ep.Send(1, 2, 5000)
			}
			ep.Flush()
			_, retransmits, dups := ep.ReliabilityStats()
			if retransmits != 0 || dups != 0 {
				return fmt.Errorf("lossless run retransmitted %d / saw %d dups", retransmits, dups)
			}
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			for i := 0; i < 10; i++ {
				ep.Recv(0, 2)
			}
			acks, _, _ := ep.ReliabilityStats()
			if acks != 10 {
				return fmt.Errorf("expected 10 acks, sent %d", acks)
			}
			return nil
		},
	)
}

// runBlackout executes programs over a link that is down for the whole run,
// via the fault-injection plan — no frame is ever delivered.
func runBlackout(t *testing.T, q simtime.Duration, progs ...guest.Program) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Nodes:    len(progs),
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: q} },
		Program:  func(rank, size int) guest.Program { return progs[rank] },
		MaxGuest: simtime.Guest(60 * simtime.Second),
		Faults: &faults.Plan{Default: faults.Link{
			Down: []faults.Window{{Start: 0, End: simtime.GuestInfinity}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A link that never delivers must not hang Flush: after DefaultMaxRetries
// retransmissions the next expiry abandons the message, Flush terminates,
// and the permanent failure surfaces through Flush and Err wrapping
// ErrDeliveryFailed, with the timeout/retransmit/failure counters recording
// exactly the capped attempts.
func TestReliableDeliveryFailureSurfaced(t *testing.T) {
	var flushErr, endpointErr error
	var retransmits, timeouts, failures int
	runBlackout(t, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			ep.Send(1, 3, 2000)
			flushErr = ep.Flush()
			endpointErr = ep.Err()
			_, retransmits, timeouts, _, failures = ep.TransportStats()
			ep.ReportMetrics()
			return nil
		},
		func(p *guest.Proc) error { return nil },
	)
	if !errors.Is(flushErr, msg.ErrDeliveryFailed) {
		t.Fatalf("Flush = %v, want ErrDeliveryFailed", flushErr)
	}
	if !errors.Is(endpointErr, msg.ErrDeliveryFailed) {
		t.Errorf("Err() = %v, want ErrDeliveryFailed", endpointErr)
	}
	if failures != 1 {
		t.Errorf("failures = %d, want 1", failures)
	}
	if retransmits != msg.DefaultMaxRetries {
		t.Errorf("retransmits = %d, want exactly DefaultMaxRetries (%d)", retransmits, msg.DefaultMaxRetries)
	}
	if timeouts != msg.DefaultMaxRetries+1 {
		t.Errorf("timeouts = %d, want %d (every retransmission + the abandoning expiry)", timeouts, msg.DefaultMaxRetries+1)
	}
}

// Flush's termination argument, in closed form: against a link that never
// delivers, a message's k-th timeout waits DefaultRetransmitTimeout<<min(k,3)
// and the one after its DefaultMaxRetries-th retransmission abandons it, so
// Flush returns within the sum of those waits of the send. A Flush that
// outlives the budget fails here rather than hanging.
func TestFlushWithinRetryBudget(t *testing.T) {
	var budget simtime.Duration
	for k := 0; k <= msg.DefaultMaxRetries; k++ {
		budget += msg.DefaultRetransmitTimeout << min(k, 3)
	}
	var start, end simtime.Guest
	var flushErr error
	runBlackout(t, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			ep.Send(1, 3, 2000)
			start = p.Now() // the first timer starts once the frame has left
			flushErr = ep.Flush()
			end = p.Now()
			return nil
		},
		func(p *guest.Proc) error { return nil },
	)
	if !errors.Is(flushErr, msg.ErrDeliveryFailed) {
		t.Fatalf("Flush = %v, want ErrDeliveryFailed", flushErr)
	}
	if took := end.Sub(start); took > budget {
		t.Errorf("Flush returned %v after the Send, past the %v retry budget", took, budget)
	}
}

// The same failure must surface through the mpi communicator layer.
func TestMPIFlushSurfacesDeliveryFailure(t *testing.T) {
	var flushErr error
	runBlackout(t, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			c := mpi.NewWithConfig(p, reliableCfg())
			c.Send(1, 0, 500)
			flushErr = c.Flush()
			if !errors.Is(c.Err(), msg.ErrDeliveryFailed) {
				return fmt.Errorf("Comm.Err() = %v, want ErrDeliveryFailed", c.Err())
			}
			return nil
		},
		func(p *guest.Proc) error { return nil },
	)
	if !errors.Is(flushErr, msg.ErrDeliveryFailed) {
		t.Fatalf("Comm.Flush = %v, want ErrDeliveryFailed", flushErr)
	}
}

// Property: bidirectional reliable traffic under arbitrary loss rates and
// seeds delivers every message exactly once, in order, with intact sizes.
func TestPropertyReliableExactlyOnce(t *testing.T) {
	f := func(seed uint16, rate uint8, count uint8) bool {
		n := int(count)%15 + 3
		loss := float64(rate%40) / 100
		sizes := make([]int, n)
		r := rng.New(uint64(seed))
		for i := range sizes {
			sizes[i] = r.Intn(30000)
		}
		okA, okB := true, true
		mk := func(peer int, ok *bool) guest.Program {
			return func(p *guest.Proc) error {
				ep := msg.NewWithConfig(p, reliableCfg())
				for _, s := range sizes {
					ep.Send(peer, 4, s)
				}
				for i := 0; i < n; i++ {
					m := ep.Recv(peer, 4)
					if m.Size != sizes[i] {
						*ok = false
					}
				}
				ep.Flush()
				// Stay responsive until the peer's retransmissions (whose
				// acks may have been lost) have certainly ceased.
				ep.Drain(30 * simtime.Millisecond)
				return nil
			}
		}
		runLossy(t, loss, uint64(seed)+1, 80*simtime.Microsecond, mk(1, &okA), mk(0, &okB))
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
