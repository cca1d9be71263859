package guest

import (
	"errors"
	"testing"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

func TestBroadcastFrame(t *testing.T) {
	n := NewNode(2, 4, DefaultConfig(), func(p *Proc) error {
		p.Broadcast(pkt.ProtoRaw, 64, nil)
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := drive(t, n, 10, func(s *Step) bool { return s.Kind == StepSend })
	if !st.Frame.Dst.IsBroadcast() {
		t.Error("broadcast frame has unicast destination")
	}
	if st.Frame.Src != pkt.NodeMAC(2) {
		t.Error("wrong source MAC")
	}
}

func TestSleepUntilAndNoOps(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(0)    // no-op
		p.Sleep(0)      // no-op
		p.Sleep(-5)     // no-op
		p.SleepUntil(0) // already past
		p.SleepUntil(simtime.Guest(25 * us))
		p.Report("at_us", simtime.Duration(p.Now()).Microseconds())
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := n.Step()
	if st.Kind != StepBlocked || st.Deadline != simtime.Guest(25*us) {
		t.Fatalf("expected sleep to 25µs, got %+v", st)
	}
	n.WakeAt(simtime.Guest(25 * us))
	drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if n.Metrics()["at_us"] != 25 {
		t.Errorf("woke at %vµs", n.Metrics()["at_us"])
	}
}

func TestNegativeComputePanicsInWorkload(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			p.Compute(-1)
		}()
		if !panicked {
			return errors.New("negative compute did not panic")
		}
		func() {
			defer func() { panicked = recover() != nil }()
			p.Send(0, pkt.ProtoRaw, -1, nil)
		}()
		if !panicked {
			return errors.New("negative send size did not panic")
		}
		// A negative size would reach the NIC model as a negative
		// serialization time and move its transmit clock backwards.
		func() {
			defer func() { panicked = recover() != nil }()
			p.Broadcast(pkt.ProtoRaw, -100, nil)
		}()
		if !panicked {
			return errors.New("negative broadcast size did not panic")
		}
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(100 * us))
	st := drive(t, n, 10, func(s *Step) bool { return s.Kind == StepDone })
	if st.Err != nil {
		t.Fatal(st.Err)
	}
}

func TestProcAccessors(t *testing.T) {
	n := NewNode(3, 8, DefaultConfig(), func(p *Proc) error {
		if p.Rank() != 3 || p.Size() != 8 {
			return errors.New("wrong rank/size")
		}
		if p.Config() != DefaultConfig() {
			return errors.New("wrong config")
		}
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(10 * us))
	st := n.Step()
	if st.Kind != StepDone || st.Err != nil {
		t.Fatalf("%v %v", st.Kind, st.Err)
	}
}

func TestStepKindStrings(t *testing.T) {
	kinds := map[StepKind]string{
		StepBusy: "busy", StepSend: "send", StepBlocked: "blocked",
		StepLimit: "limit", StepDone: "done", StepKind(99): "StepKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestBeginQuantumRegressionPanics(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
		p.Compute(50 * us)
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(50 * us))
	n.Step()
	defer func() {
		if recover() == nil {
			t.Error("shrinking quantum limit did not panic")
		}
	}()
	n.BeginQuantum(simtime.Guest(10 * us))
}

func TestStepAfterDoneStaysDone(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error { return nil })
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(10 * us))
	if st := n.Step(); st.Kind != StepDone {
		t.Fatal("first step should be done")
	}
	if st := n.Step(); st.Kind != StepDone {
		t.Fatal("subsequent steps should stay done")
	}
	if !n.Done() {
		t.Error("Done() false after completion")
	}
}

func TestShutdownOnNeverStartedNode(t *testing.T) {
	n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error { return nil })
	n.Shutdown() // must be a safe no-op
	if n.Done() {
		t.Error("never-started node marked done by Shutdown")
	}
}
