package guest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

const us = simtime.Microsecond

// drive steps a node until the predicate returns true or the step budget is
// exhausted, failing the test in the latter case. Busy steps are accepted
// silently (the test harness is a zero-cost host).
func drive(t *testing.T, n *Node, budget int, stop func(*Step) bool) *Step {
	t.Helper()
	for i := 0; i < budget; i++ {
		st := n.Step()
		if stop(st) {
			return st
		}
		switch st.Kind {
		case StepBusy:
			// zero-cost host: continue immediately
		case StepLimit, StepBlocked, StepDone:
			t.Fatalf("unexpected %v step at %v", st.Kind, st.To)
		}
	}
	t.Fatal("step budget exhausted")
	return nil
}

func TestComputeAdvancesClockAcrossQuanta(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(25 * us)
		return nil
	})
	defer n.Shutdown()
	// Quantum of 10µs: the compute must take three quanta.
	for q := 1; q <= 2; q++ {
		n.BeginQuantum(simtime.Guest(q) * simtime.Guest(10*us))
		st := n.Step() // busy to the limit
		if st.Kind != StepBusy || st.To != simtime.Guest(q*10)*simtime.Guest(us) {
			t.Fatalf("quantum %d: got %v to %v", q, st.Kind, st.To)
		}
		if st = n.Step(); st.Kind != StepLimit {
			t.Fatalf("quantum %d: expected limit, got %v", q, st.Kind)
		}
	}
	n.BeginQuantum(simtime.Guest(30 * us))
	st := n.Step()
	if st.Kind != StepBusy || st.To != simtime.Guest(25*us) {
		t.Fatalf("final chunk: %v to %v", st.Kind, st.To)
	}
	st = n.Step()
	if st.Kind != StepDone || st.Err != nil {
		t.Fatalf("expected done, got %v err=%v", st.Kind, st.Err)
	}
	if n.FinishedAt() != simtime.Guest(25*us) {
		t.Errorf("finished at %v", n.FinishedAt())
	}
}

func TestSendEmitsFrameAfterOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SendOverhead = 2 * us
	n := NewNode(3, 8, cfg, func(p *Proc) error {
		p.Send(5, pkt.ProtoRaw, 100, nil)
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBusy || st.To.Sub(st.From) != 2*us {
		t.Fatalf("send overhead not charged: %v [%v,%v]", st.Kind, st.From, st.To)
	}
	st = n.Step()
	if st.Kind != StepSend {
		t.Fatalf("expected send, got %v", st.Kind)
	}
	if st.Frame.Src != pkt.NodeMAC(3) || st.Frame.Dst != pkt.NodeMAC(5) || st.Frame.Size != 100 {
		t.Errorf("bad frame %v", st.Frame)
	}
	if st.To != simtime.Guest(2*us) {
		t.Errorf("send at %v, want 2µs", st.To)
	}
}

func TestRecvBlocksAndWakes(t *testing.T) {
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		a := p.Recv()
		p.Report("arr_us", simtime.Duration(a.Time).Microseconds())
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked || st.NextArrival != simtime.GuestInfinity {
		t.Fatalf("expected blocked with no arrival, got %+v", st)
	}
	// A frame scheduled for guest t=40µs.
	n.Deliver(&pkt.Frame{Src: pkt.NodeMAC(1), Dst: pkt.NodeMAC(0)}, simtime.Guest(40*us))
	n.WakeAt(simtime.Guest(40 * us))
	st = drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["arr_us"] != 40 {
		t.Errorf("arrival at %vµs, want 40", n.Metrics()["arr_us"])
	}
}

func TestBlockedReportsQueuedFutureArrival(t *testing.T) {
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		p.Recv()
		return nil
	})
	defer n.Shutdown()
	n.Deliver(&pkt.Frame{}, simtime.Guest(30*us))
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked || st.NextArrival != simtime.Guest(30*us) {
		t.Fatalf("blocked step did not report the queued arrival: %+v", st)
	}
}

func TestRecvDeadlineTimesOut(t *testing.T) {
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		_, ok := p.RecvDeadline(simtime.Guest(20 * us))
		if ok {
			return errors.New("unexpected frame")
		}
		p.Report("timeout_at_us", simtime.Duration(p.Now()).Microseconds())
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked || st.Deadline != simtime.Guest(20*us) {
		t.Fatalf("expected blocked with deadline, got %+v", st)
	}
	n.WakeAt(simtime.Guest(20 * us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["timeout_at_us"] != 20 {
		t.Errorf("timed out at %vµs", n.Metrics()["timeout_at_us"])
	}
}

func TestStragglerVisibleImmediately(t *testing.T) {
	// A frame delivered with an arrival time in the node's past must be
	// returned by the next Recv.
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		p.Compute(50 * us)
		a := p.Recv()
		p.Report("arr_us", simtime.Duration(a.Time).Microseconds())
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepBusy && s.To == simtime.Guest(50*us) })
	// Straggler stamped at guest 50µs (the node's "current position").
	n.Deliver(&pkt.Frame{}, simtime.Guest(50*us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["arr_us"] != 50 {
		t.Errorf("straggler arrival %vµs, want 50", n.Metrics()["arr_us"])
	}
}

func TestArrivalOrderIsByTimestamp(t *testing.T) {
	n := NewNode(0, 3, DefaultConfig(), func(p *Proc) error {
		first := p.Recv()
		second := p.Recv()
		p.Report("first", float64(first.Frame.ID))
		p.Report("second", float64(second.Frame.ID))
		return nil
	})
	defer n.Shutdown()
	// Delivered out of order; must be received in timestamp order.
	n.Deliver(&pkt.Frame{ID: 2}, simtime.Guest(60*us))
	n.Deliver(&pkt.Frame{ID: 1}, simtime.Guest(40*us))
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked {
		t.Fatalf("expected blocked, got %v", st.Kind)
	}
	n.WakeAt(simtime.Guest(70 * us))
	drive(t, n, 20, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["first"] != 1 || n.Metrics()["second"] != 2 {
		t.Errorf("wrong order: first=%v second=%v", n.Metrics()["first"], n.Metrics()["second"])
	}
}

func TestSleep(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Sleep(30 * us)
		p.Report("woke_us", simtime.Duration(p.Now()).Microseconds())
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked || st.Deadline != simtime.Guest(30*us) {
		t.Fatalf("expected sleep-blocked until 30µs, got %+v", st)
	}
	n.WakeAt(simtime.Guest(30 * us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["woke_us"] != 30 {
		t.Errorf("woke at %vµs", n.Metrics()["woke_us"])
	}
}

func TestWorkloadErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error { return boom })
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(10 * us))
	st := n.Step()
	if st.Kind != StepDone || !errors.Is(st.Err, boom) {
		t.Fatalf("got %v err=%v", st.Kind, st.Err)
	}
	if !errors.Is(n.Err(), boom) {
		t.Error("node did not record the error")
	}
}

func TestShutdownUnblocksWorkload(t *testing.T) {
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		p.Recv() // never satisfied
		return nil
	})
	n.BeginQuantum(simtime.Guest(10 * us))
	if st := n.Step(); st.Kind != StepBlocked {
		t.Fatalf("expected blocked, got %v", st.Kind)
	}
	n.Shutdown() // must not hang
	if !n.Done() {
		t.Error("node not done after shutdown")
	}
}

func TestShutdownMidCompute(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(simtime.Second)
		return nil
	})
	n.BeginQuantum(simtime.Guest(10 * us))
	n.Step() // busy to the limit; compute pending
	n.Shutdown()
	if !n.Done() {
		t.Error("node not done after shutdown")
	}
}

func TestWakeAtRegressionPanics(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(20 * us)
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(50 * us))
	n.Step() // clock at 20µs
	defer func() {
		if recover() == nil {
			t.Error("WakeAt into the past did not panic")
		}
	}()
	n.WakeAt(simtime.Guest(10 * us))
}

func TestTryRecv(t *testing.T) {
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		if _, ok := p.TryRecv(); ok {
			return errors.New("TryRecv returned a frame on an empty queue")
		}
		p.Compute(10 * us)
		a, ok := p.TryRecv()
		if !ok {
			return errors.New("TryRecv missed a visible frame")
		}
		p.Report("got", float64(a.Frame.ID))
		return nil
	})
	defer n.Shutdown()
	n.Deliver(&pkt.Frame{ID: 9}, simtime.Guest(5*us))
	n.BeginQuantum(simtime.Guest(100 * us))
	drive(t, n, 20, func(s *Step) bool { return s.Kind == StepDone })
	if err := n.Err(); err != nil {
		t.Fatal(err)
	}
	if n.Metrics()["got"] != 9 {
		t.Error("wrong frame")
	}
}

// callIn is a frame source and sink whose upcalls run fn: what a workload's
// own source or sink might, wrongly, do.
type callIn struct{ fn func(k int) }

func (c callIn) Frame(k int) (int, pkt.Proto, int, []byte) {
	c.fn(k)
	return 1, pkt.ProtoRaw, 64, nil
}

func (c callIn) Absorb(Arrival) bool {
	c.fn(0)
	return true
}

// A source or sink runs between steps, on the stepper's stack: a Proc call
// that consumes guest time from inside one has no coroutine to suspend and
// must panic, naming the call; and a node parked mid-train or under a sink
// must still unwind when it is shut down.
func TestUpcallGuardAndShutdown(t *testing.T) {
	for _, c := range []struct {
		name      string
		prog      func(p *Proc)
		wantPanic string
	}{
		{
			name: "Proc call from a frame source",
			prog: func(p *Proc) {
				p.SendTrain(callIn{func(k int) {
					if k == 1 {
						p.Compute(us)
					}
				}}, 2)
			},
			wantPanic: "guest: Proc.Compute called from a frame source/sink",
		},
		{
			name:      "Proc call from a frame sink",
			prog:      func(p *Proc) { p.RecvSink(g(50*us), callIn{func(int) { p.Send(1, pkt.ProtoRaw, 64, nil) }}) },
			wantPanic: "guest: Proc.Send called from a frame source/sink",
		},
		{
			name: "shutdown mid-train",
			prog: func(p *Proc) { p.SendTrain(sizes{64, 64, 64, 64}, 4) },
		},
		{
			name: "shutdown with a sink installed",
			prog: func(p *Proc) { p.RecvSink(simtime.GuestInfinity, absorbAll{}) },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			returned := false
			n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
				c.prog(p)
				returned = true
				return nil
			})
			n.Deliver(&pkt.Frame{ID: 7}, g(500*ns))
			func() {
				defer func() {
					got := ""
					if r := recover(); r != nil {
						got = fmt.Sprint(r)
					}
					if got != c.wantPanic {
						t.Errorf("stepping panicked with %q, want %q", got, c.wantPanic)
					}
				}()
				// 2µs: two frames of a train out and the third one's overhead
				// owed, or the delivered frame absorbed and the sink waiting.
				quantumTrace(n, g(2*us))
			}()
			n.Shutdown()
			if !n.Done() || returned {
				t.Errorf("after Shutdown: done=%v, program returned normally=%v", n.Done(), returned)
			}
		})
	}
}

// A finished workload's coroutine is parked in its final yield; Shutdown must
// end it too, or every node of every run stays reachable from a leaked
// coroutine stack for the life of the process.
func TestShutdownEndsFinishedCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(us)
		return nil
	})
	n.BeginQuantum(g(10 * us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	at := n.FinishedAt()
	if during := runtime.NumGoroutine(); during != before+1 {
		t.Fatalf("%d goroutines with the finished coroutine parked, %d before: the count does not see coroutines", during, before)
	}
	n.Shutdown()
	n.Shutdown() // and stays safe to repeat
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("%d goroutines after Shutdown, %d before the node ran: the finished coroutine leaked", after, before)
	}
	if !n.Done() || n.Err() != nil || n.FinishedAt() != at {
		t.Errorf("Shutdown changed a finished node: done=%v err=%v finished %v (was %v)", n.Done(), n.Err(), n.FinishedAt(), at)
	}
}

// Step hands back the node's own record: the same one every call, each Step
// overwriting what the last reported.
func TestStepReturnsOwnRecord(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(3 * us)
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(g(2 * us))
	busy := n.Step()
	if busy.Kind != StepBusy || busy.To != g(2*us) {
		t.Fatalf("first step %+v, want busy to 2µs", *busy)
	}
	if limit := n.Step(); limit != busy || busy.Kind != StepLimit || busy.From != g(2*us) {
		t.Fatalf("second step %p %+v, want the first's record %p overwritten with the limit", limit, *limit, busy)
	}
}

// BenchmarkNodeStep prices one Step of a compute-only node stepped across 1 µs
// quanta, a ground-truth walk: every step charges busy time or reports the
// limit, and every 200th resumes the workload coroutine. A step allocates
// nothing.
func BenchmarkNodeStep(b *testing.B) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		for {
			p.Compute(100 * us)
		}
	})
	defer n.Shutdown()
	n.Step() // start the coroutine: it reports the zero limit
	limit := n.Clock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := n.Step(); st.Kind == StepLimit {
			limit += g(us)
			n.BeginQuantum(limit)
		}
	}
}
