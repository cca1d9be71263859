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

// runLossy executes programs with link's faults on every link.
func runLossy(t *testing.T, link faults.Link, seed uint64, q simtime.Duration, progs ...guest.Program) *cluster.Result {
	t.Helper()
	res, err := cluster.Run(cluster.Config{
		Nodes:    len(progs),
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		Policy:   func() quantum.Policy { return quantum.Fixed{Q: q} },
		Program:  func(rank, size int) guest.Program { return progs[rank] },
		MaxGuest: simtime.Guest(60 * simtime.Second),
		Faults:   &faults.Plan{Seed: seed, Default: link},
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
	res := runLossy(t, faults.Link{Loss: 0.15}, 7, 50*simtime.Microsecond,
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
	res := runLossy(t, faults.Link{Loss: 0.2}, 3, 100*simtime.Microsecond,
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
	runLossy(t, faults.Link{Loss: 0.3}, 11, 50*simtime.Microsecond,
		func(p *guest.Proc) error {
			ep := msg.New(p)
			for i := 0; i < n; i++ {
				ep.Send(1, 1, 100)
			}
			return nil
		},
		func(p *guest.Proc) error {
			ep := msg.New(p)
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
	runLossy(t, faults.Link{}, 0, simtime.Microsecond,
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

// fragBytes is the payload one data fragment carries: a jumbo frame less
// the 40-byte header.
const fragBytes = pkt.DefaultMTU - 40

// sizeIn maps v into one of four message classes: single-fragment,
// multi-fragment eager, rendezvous, and rendezvous past 64 fragments (the
// receiver's fragment bitset spills into its overflow words).
func sizeIn(class, v int) int {
	switch class % 4 {
	case 0:
		return v % (fragBytes + 1)
	case 1:
		return fragBytes + 1 + v%(msg.DefaultEagerMax-fragBytes)
	case 2:
		return msg.DefaultEagerMax + 1 + v%(2*msg.DefaultEagerMax)
	default:
		return 64*fragBytes + 1 + v%(2*fragBytes)
	}
}

// exactlyOnce runs two reliable endpoints over link, each sending one
// message of every size to the other, payload bytes drawn from seed, and
// checks that every message arrives exactly once, in order and intact, and
// that both endpoints end with nothing in flight, half-built or unmatched.
func exactlyOnce(t *testing.T, seed uint64, link faults.Link, sizes []int) error {
	r := rng.New(seed)
	payloads := make([][]byte, len(sizes))
	for i, s := range sizes {
		payloads[i] = make([]byte, s)
		for j := range payloads[i] {
			payloads[i][j] = byte(r.Uint64())
		}
	}
	errs := make([]error, 2)
	mk := func(peer int) guest.Program {
		return func(p *guest.Proc) error {
			ep := msg.NewWithConfig(p, reliableCfg())
			for _, pl := range payloads {
				ep.SendPayload(peer, 4, pl)
			}
			for i := range payloads {
				if m := ep.Recv(peer, 4); !bytes.Equal(m.Payload, payloads[i]) {
					errs[peer] = fmt.Errorf("rank %d: message %d of %d bytes arrived as %d bytes or corrupted", p.Rank(), i, len(payloads[i]), m.Size)
				}
			}
			if err := ep.Flush(); err != nil {
				errs[peer] = err
			}
			// Stay responsive until the peer's retransmissions (whose
			// acks may have been lost) have certainly ceased.
			ep.Drain(30 * simtime.Millisecond)
			if inc, out, pend := ep.Incomplete(), ep.Outstanding(), ep.Pending(); inc+out+pend != 0 && errs[peer] == nil {
				errs[peer] = fmt.Errorf("rank %d after Flush and Drain: %d incomplete, %d outstanding, %d pending", p.Rank(), inc, out, pend)
			}
			return nil
		}
	}
	runLossy(t, link, seed+1, 80*simtime.Microsecond, mk(1), mk(0))
	return errors.Join(errs...)
}

// faultLink builds the property and fuzz targets' link: loss below 40%,
// duplication below 50%, jitter below 64 us.
func faultLink(loss, dup, jitter uint8) faults.Link {
	return faults.Link{
		Loss:   float64(loss%40) / 100,
		Dup:    float64(dup%50) / 100,
		Jitter: simtime.Duration(jitter%64) * simtime.Microsecond,
	}
}

// Property: bidirectional reliable traffic under arbitrary loss,
// duplication and jitter delivers every message exactly once, in order,
// with intact bytes — through reordered frames, messages completed out of
// order into the hold, duplicates of held messages, and messages of every
// size class.
func TestPropertyReliableExactlyOnce(t *testing.T) {
	f := func(seed uint16, loss, dup, jitter, count uint8) bool {
		r := rng.New(uint64(seed))
		sizes := make([]int, int(count)%9+4)
		rot := r.Intn(4)
		for i := range sizes {
			sizes[i] = sizeIn(i+rot, r.Intn(1<<20)) // every class at least once
		}
		if err := exactlyOnce(t, uint64(seed), faultLink(loss, dup, jitter), sizes); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// FuzzReliableExactlyOnce is TestPropertyReliableExactlyOnce over fuzzed
// inputs: every two bytes of sizes pick one message's size class and size,
// up to twelve messages each way.
func FuzzReliableExactlyOnce(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(20), uint8(30), []byte{0, 7, 1, 9, 2, 200, 3, 5})
	f.Add(uint64(2), uint8(0), uint8(49), uint8(63), []byte{3, 1, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, seed uint64, loss, dup, jitter uint8, sizeBytes []byte) {
		var sizes []int
		for i := 0; i+1 < len(sizeBytes) && len(sizes) < 12; i += 2 {
			sizes = append(sizes, sizeIn(int(sizeBytes[i]), int(sizeBytes[i])<<8|int(sizeBytes[i+1])))
		}
		if err := exactlyOnce(t, seed, faultLink(loss, dup, jitter), sizes); err != nil {
			t.Error(err)
		}
	})
}
