package guest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// hsOp is one step of a handshake script: compute, send a run of frames to
// node 1, or receive until a frame that needs the workload (declines) or a
// deadline.
type hsOp struct {
	kind   opKind
	dur    simtime.Duration // compute; recv: deadline from the op's start, 0 = none
	frames sizes            // send
}

// declines marks the frames a receive op ends at: the stand-in for a control
// frame or a message's last fragment.
func declines(a Arrival) bool { return a.Frame.Size%4 == 0 }

// hsSink absorbs every frame that does not decline, folding it into the same
// state the loop program keeps.
type hsSink struct {
	sum uint64
	n   int
}

func (s *hsSink) Absorb(a Arrival) bool {
	if declines(a) {
		return false
	}
	s.sum += a.Frame.ID
	s.n++
	return true
}

// hsProgram runs script with trains and a sink, or with one Proc call per
// frame. resumes receives the switches into the workload it cost.
func hsProgram(script []hsOp, trains bool, resumes *int) Program {
	return func(p *Proc) error {
		var st hsSink
		for _, op := range script {
			deadline := simtime.GuestInfinity
			if op.kind == opRecv && op.dur > 0 {
				deadline = p.Now().Add(op.dur)
			}
			switch {
			case op.kind == opCompute:
				p.Compute(op.dur)
			case op.kind == opSend && trains:
				p.SendTrain(op.frames, len(op.frames))
			case op.kind == opSend:
				for _, size := range op.frames {
					p.Send(1, pkt.ProtoRaw, size, nil)
				}
			case trains:
				if a, ok := p.RecvSink(deadline, &st); ok {
					st.sum += a.Frame.ID
				}
			default:
				for {
					a, ok := p.RecvDeadline(deadline)
					if !ok {
						break
					}
					st.sum += a.Frame.ID
					if declines(a) {
						break
					}
					st.n++
				}
			}
		}
		p.Report("sum", float64(st.sum))
		p.Report("absorbed", float64(st.n))
		*resumes = p.Resumes()
		return nil
	}
}

// hsScript draws a script: short computes, trains of 1-12 frames, receives
// with and without a deadline.
func hsScript(rnd *rand.Rand) []hsOp {
	script := make([]hsOp, 40)
	for i := range script {
		switch rnd.Intn(3) {
		case 0:
			script[i] = hsOp{kind: opCompute, dur: simtime.Duration(1 + rnd.Intn(3000))}
		case 1:
			fr := make(sizes, 1+rnd.Intn(12))
			for k := range fr {
				fr[k] = rnd.Intn(9000)
			}
			script[i] = hsOp{kind: opSend, frames: fr}
		default:
			script[i] = hsOp{kind: opRecv}
			if rnd.Intn(3) > 0 {
				script[i].dur = simtime.Duration(1 + rnd.Intn(30000))
			}
		}
	}
	return script
}

// hsDrive steps n to completion the way the engine does, under quantum
// lengths and deliveries (at barriers and between steps, into the node's past
// and future) drawn from rnd, and returns every Step it saw and the quiet peek
// at every barrier. The draws depend
// only on rnd and on how many steps were taken, so two nodes that step alike
// are driven alike.
func hsDrive(t *testing.T, n *Node, rnd *rand.Rand) []string {
	t.Helper()
	var trace []string
	id := uint64(0)
	deliver := func() {
		id++
		at := n.Clock() + simtime.Guest(rnd.Intn(5000)-1000)
		if at < 0 {
			at = 0
		}
		n.Deliver(&pkt.Frame{ID: id, Size: 1 + rnd.Intn(4000)}, at)
	}
	for q := 0; q < 200000; q++ {
		length := 1 + rnd.Intn(3000)
		if rnd.Intn(8) == 0 {
			length = 20000
		}
		limit := n.Clock() + simtime.Guest(length)
		for k := rnd.Intn(4); k > 0; k-- {
			deliver()
		}
		// What the engine's quiet pass would see at this barrier.
		until, busy := n.QuietUntil()
		trace = append(trace, fmt.Sprintf("barrier %v: quiet until %v busy %v", n.Clock(), until, busy))
		n.BeginQuantum(limit)
	quantum:
		for {
			st := n.Step()
			rec := fmt.Sprintf("%v %v-%v next %v deadline %v", st.Kind, st.From, st.To, st.NextArrival, st.Deadline)
			if st.Kind == StepSend {
				rec += fmt.Sprintf(" frame %d size %d dst %v", st.Frame.ID, st.Frame.Size, st.Frame.Dst)
			}
			trace = append(trace, rec)
			if rnd.Intn(8) == 0 {
				deliver()
			}
			switch st.Kind {
			case StepBlocked:
				target := simtime.MinGuest(simtime.MinGuest(st.NextArrival, st.Deadline), limit)
				if target <= st.To {
					break quantum
				}
				n.WakeAt(target)
			case StepLimit:
				break quantum
			case StepDone:
				return trace
			}
		}
	}
	t.Fatal("node did not finish")
	return nil
}

// TestHandshakeDifferential is the exactness of trains and sinks at the node
// boundary: the same script run with one SendTrain/RecvSink per op and with
// one Send/RecvDeadline per frame must show the engine the identical Step
// sequence — kinds, intervals, frames, wake-up hints — and end in the same
// state, whatever the quanta and deliveries; only the number of switches into
// the workload may differ.
func TestHandshakeDifferential(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		script := hsScript(rand.New(rand.NewSource(seed)))
		var resumes [2]int
		var nodes [2]*Node
		var traces [2][]string
		for i, trains := range []bool{true, false} {
			nodes[i] = NewNode(0, 2, DefaultConfig(), hsProgram(script, trains, &resumes[i]))
			traces[i] = hsDrive(t, nodes[i], rand.New(rand.NewSource(1000+seed)))
			defer nodes[i].Shutdown()
		}
		for i := range traces[0] {
			if i >= len(traces[1]) || traces[0][i] != traces[1][i] {
				t.Fatalf("seed %d: step %d differs:\n trains+sink %s\n per frame   %s", seed, i, traces[0][i], traces[1][min(i, len(traces[1])-1)])
			}
		}
		if len(traces[0]) != len(traces[1]) {
			t.Fatalf("seed %d: %d steps with trains, %d per frame", seed, len(traces[0]), len(traces[1]))
		}
		a, b := nodes[0], nodes[1]
		if a.Clock() != b.Clock() || a.FinishedAt() != b.FinishedAt() || a.Err() != nil || b.Err() != nil {
			t.Errorf("seed %d: end state differs: clock %v/%v finished %v/%v err %v/%v",
				seed, a.Clock(), b.Clock(), a.FinishedAt(), b.FinishedAt(), a.Err(), b.Err())
		}
		if !reflect.DeepEqual(a.Metrics(), b.Metrics()) {
			t.Errorf("seed %d: workload state differs: %v with trains, %v per frame", seed, a.Metrics(), b.Metrics())
		}
		// One switch per op (plus start and finish) against one per frame.
		if resumes[0] > len(script)+2 || resumes[1] <= resumes[0] {
			t.Errorf("seed %d: %d resumes with trains and a sink (script of %d ops), %d per frame",
				seed, resumes[0], len(script), resumes[1])
		}
	}
}

// every64th is the benchmark's sink: it declines each 64th frame, the end of
// a message.
type every64th struct{ n int }

func (s *every64th) Absorb(Arrival) bool {
	s.n++
	return s.n%hsFrames != 0
}

const hsFrames = 64

// trainPair is the handshake benchmark's two nodes: tx sends hsFrames-frame
// messages of size-only frames, as trains or with one Send per frame, and rx
// receives them into a sink that ends each message, or with one RecvSink per
// frame.
func trainPair(trains bool) (tx, rx *Node) {
	train := make(sizes, hsFrames)
	tx = NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		src := FrameSource(train) // boxed once: a slice is not pointer-shaped
		for {
			if trains {
				p.SendTrain(src, hsFrames)
				continue
			}
			for range train {
				p.Send(1, pkt.ProtoRaw, 0, nil)
			}
		}
	})
	rx = NewNode(1, 2, DefaultConfig(), func(p *Proc) error {
		var sink FrameSink
		if trains {
			sink = &every64th{}
		}
		for {
			p.RecvSink(simtime.GuestInfinity, sink)
		}
	})
	return tx, rx
}

// exchange moves one message from tx to rx through the Step loop.
func exchange(tx, rx *Node) {
	tx.BeginQuantum(tx.Clock() + simtime.Guest(simtime.Second))
	for sent := 0; sent < hsFrames; {
		if st := tx.Step(); st.Kind == StepSend {
			// Already visible: the receiver never idles.
			rx.Deliver(st.Frame, rx.Clock())
			sent++
		}
	}
	rx.BeginQuantum(rx.Clock() + simtime.Guest(simtime.Second))
	for rx.Step().Kind != StepBlocked {
	}
}

// TestFrameTrainZeroAllocs pins the frame path at zero heap allocations: once
// the receive queue has grown, a message of size-only frames sent as a train,
// delivered and absorbed by a sink allocates nothing from send to receive.
func TestFrameTrainZeroAllocs(t *testing.T) {
	tx, rx := trainPair(true)
	defer tx.Shutdown()
	defer rx.Shutdown()
	exchange(tx, rx) // the coroutines start and the receive queue grows
	if allocs := testing.AllocsPerRun(100, func() { exchange(tx, rx) }); allocs != 0 {
		t.Errorf("%v allocations per %d-frame message, want 0", allocs, hsFrames)
	}
}

// BenchmarkFrameHandshake prices the workload handshake per frame: a
// 64-fragment message sent and received through the Step loop, once with a
// Proc call per frame and once as a train into a sink.
func BenchmarkFrameHandshake(b *testing.B) {
	for _, trains := range []bool{false, true} {
		name := "single"
		if trains {
			name = "train"
		}
		b.Run(name, func(b *testing.B) {
			tx, rx := trainPair(trains)
			defer tx.Shutdown()
			defer rx.Shutdown()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exchange(tx, rx)
			}
			frames := float64(b.N) * hsFrames
			resumes := float64(tx.resumes+rx.resumes) / frames
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			b.ReportMetric(resumes, "resumes/frame")
			if trains && resumes > 0.1 { // 2 per message, plus the two workloads starting
				b.Errorf("%.3f resumes per frame on a train into a sink, want 2 per %d-frame message", resumes, hsFrames)
			}
		})
	}
}
