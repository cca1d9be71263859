package msg

import (
	"fmt"
	"slices"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// Messages from two sources complete out of sequence order on a reliable
// endpoint (rank 2 of 3). The hold list must release each source's messages
// in sequence order as their predecessors arrive, count and re-ack a
// duplicate of a held message without delivering it twice, and be empty
// once every gap has filled.
func TestHoldReleasesInSequenceOrder(t *testing.T) {
	// Message seq from src is single-fragment and size-only; its Size names
	// it, and its id is per sender, as on the wire.
	data := func(p *guest.Proc, src int, seq uint32) guest.Arrival {
		size := 100*src + int(seq)
		h := pkt.Header{Kind: kindData, ID: uint64(seq) + 1, Tag: int32(src), Size: size, Frag: int32(size), Seq: seq}
		return guest.Arrival{Frame: &pkt.Frame{Src: pkt.NodeMAC(src), Proto: pkt.ProtoMsg, Size: headerBytes + size, Msg: h}, Time: p.Now()}
	}
	sizes := func(ms []Message) []int {
		var s []int
		for _, m := range ms {
			s = append(s, m.Size)
		}
		return s
	}
	n := guest.NewNode(2, 3, guest.DefaultConfig(), func(p *guest.Proc) error {
		ep := NewWithConfig(p, Config{Reliable: true})
		for _, c := range []struct {
			src     int
			seq     uint32
			ready   []int // Sizes on the ready list afterwards
			held    int
			dups    int
			comment string
		}{
			{0, 2, nil, 1, 0, "ahead of 0 and 1"},
			{1, 1, nil, 2, 0, "ahead of 0, other source"},
			{0, 1, nil, 3, 0, "still ahead of 0"},
			{0, 2, nil, 3, 1, "duplicate of a held message"},
			{1, 0, []int{100, 101}, 2, 1, "fills source 1's gap"},
			{0, 0, []int{100, 101, 0, 1, 2}, 0, 1, "fills source 0's gap"},
			{0, 1, []int{100, 101, 0, 1, 2}, 0, 2, "duplicate of a released message"},
		} {
			ep.handleFrame(data(p, c.src, c.seq))
			if got := sizes(ep.ready); !slices.Equal(got, c.ready) {
				return fmt.Errorf("%s (src %d seq %d): ready %v, want %v", c.comment, c.src, c.seq, got, c.ready)
			}
			if len(ep.hold) != c.held || ep.duplicates != c.dups {
				return fmt.Errorf("%s (src %d seq %d): %d held, %d duplicates; want %d, %d",
					c.comment, c.src, c.seq, len(ep.hold), ep.duplicates, c.held, c.dups)
			}
		}
		return nil
	})
	defer n.Shutdown()
	n.BeginQuantum(simtime.Guest(simtime.Second))
	var acked []string
	for {
		st := n.Step()
		if st.Kind == guest.StepSend {
			if h := st.Frame.Msg; h.Kind == kindAck {
				acked = append(acked, fmt.Sprintf("%d/%d", st.Frame.Dst.Node(), h.Size%100))
			}
			continue
		}
		if st.Kind == guest.StepBusy {
			continue
		}
		if st.Kind != guest.StepDone || st.Err != nil {
			t.Fatalf("%v %v", st.Kind, st.Err)
		}
		break
	}
	// Every frame is acked once, the duplicates included.
	if want := []string{"0/2", "1/1", "0/1", "0/2", "1/0", "0/0", "0/1"}; !slices.Equal(acked, want) {
		t.Errorf("acks (dst/seq) %v, want %v", acked, want)
	}
}
