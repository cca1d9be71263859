package msg

import (
	"fmt"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// The sink runs between steps, so it may take only what needs no workload:
// mid-message data fragments of an unreliable endpoint. Everything that
// sends, completes a message or re-arms a timer is declined and reaches
// handleFrame on the workload's side.
func TestAbsorbDeclinesWhatNeedsTheWorkload(t *testing.T) {
	frame := func(proto pkt.Proto, kind byte, id uint64, size, off, frag int) guest.Arrival {
		data := make([]byte, headerBytes)
		headerInto(data, kind, id, 5, size, off, frag, 0)
		return guest.Arrival{Frame: &pkt.Frame{Src: pkt.NodeMAC(0), Proto: proto, Size: headerBytes + frag, Data: data}}
	}
	n := guest.NewNode(1, 2, guest.DefaultConfig(), func(p *guest.Proc) error {
		// One endpoint per mode: the first three rows build on each other.
		eps := map[bool]*Endpoint{}
		for _, reliable := range []bool{false, true} {
			eps[reliable] = NewWithConfig(p, Config{MTU: pkt.DefaultMTU, Reliable: reliable})
		}
		for _, c := range []struct {
			name     string
			reliable bool
			a        guest.Arrival
			want     bool
		}{
			{"first fragment of three", false, frame(pkt.ProtoMsg, kindData, 1, 300, 0, 100), true},
			{"second fragment of three", false, frame(pkt.ProtoMsg, kindData, 1, 300, 100, 100), true},
			{"the fragment that completes the message", false, frame(pkt.ProtoMsg, kindData, 1, 300, 200, 100), false},
			{"single-fragment message", false, frame(pkt.ProtoMsg, kindData, 2, 100, 0, 100), false},
			{"zero-size message", false, frame(pkt.ProtoMsg, kindData, 3, 0, 0, 0), false},
			{"RTS", false, frame(pkt.ProtoCtrl, kindRTS, 4, 1<<20, 0, 0), false},
			{"CTS", false, frame(pkt.ProtoCtrl, kindCTS, 4, 1<<20, 0, 0), false},
			{"ack", false, frame(pkt.ProtoCtrl, kindAck, 4, 0, 0, 0), false},
			{"foreign protocol", false, frame(pkt.ProtoRaw, kindData, 5, 300, 0, 100), false},
			{"short frame", false, guest.Arrival{Frame: &pkt.Frame{Proto: pkt.ProtoMsg, Data: make([]byte, 8)}}, false},
			{"mid-message fragment, reliable endpoint", true, frame(pkt.ProtoMsg, kindData, 6, 300, 0, 100), false},
		} {
			ep := eps[c.reliable]
			before := ep.framesRecv
			got := ep.Absorb(c.a)
			if got != c.want {
				return fmt.Errorf("%s: Absorb = %v, want %v", c.name, got, c.want)
			}
			// An absorbed frame is counted here; a declined one is counted by
			// handleFrame, once.
			if counted := ep.framesRecv - before; (counted == 1) != got || counted > 1 {
				return fmt.Errorf("%s: framesRecv moved by %d", c.name, counted)
			}
		}
		if ep := eps[false]; ep.Incomplete() != 1 || ep.Pending() != 0 {
			return fmt.Errorf("after two of three fragments: %d partial, %d ready", ep.Incomplete(), ep.Pending())
		}
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(simtime.Microsecond))
	if st := n.Step(); st.Kind != guest.StepDone || st.Err != nil {
		t.Fatalf("%v %v", st.Kind, st.Err)
	}
}
