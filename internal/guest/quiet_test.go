package guest

import (
	"fmt"
	"reflect"
	"testing"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

const ns = simtime.Nanosecond

// quantumTrace steps n through one quantum ending at limit the way the
// cluster engine does on a zero-cost host — idle to min(next arrival,
// deadline, limit) when blocked, idle to the limit when done — and returns
// every Step it saw.
func quantumTrace(n *Node, limit simtime.Guest) []string {
	var tr []string
	n.BeginQuantum(limit)
	for {
		st := n.Step()
		rec := fmt.Sprintf("%v %v-%v", st.Kind, st.From, st.To)
		if st.Kind == StepSend {
			rec += fmt.Sprintf(" frame %d", st.Frame.ID)
		}
		tr = append(tr, rec)
		switch st.Kind {
		case StepBlocked:
			target := simtime.MinGuest(simtime.MinGuest(st.NextArrival, st.Deadline), limit)
			if target <= st.To {
				return tr
			}
			n.WakeAt(target)
		case StepLimit:
			return tr
		case StepDone:
			n.WakeAt(limit)
			return tr
		}
	}
}

// quietSignature is the only trace a quantum without an event can have: one
// busy interval to the limit, one idle wait to the limit, or a finished node.
func quietSignature(from, limit simtime.Guest, busy, done bool) []string {
	switch {
	case done:
		return []string{fmt.Sprintf("%v %v-%v", StepDone, from, from)}
	case busy:
		return []string{
			fmt.Sprintf("%v %v-%v", StepBusy, from, limit),
			fmt.Sprintf("%v %v-%v", StepLimit, limit, limit),
		}
	}
	return []string{
		fmt.Sprintf("%v %v-%v", StepBlocked, from, from),
		fmt.Sprintf("%v %v-%v", StepBlocked, limit, limit),
	}
}

// quietCase builds a node and parks it in the state under test. ops counts
// workload resumptions: the program bumps it when it starts and after every
// Proc call, so a change means the coroutine ran.
type quietCase struct {
	name      string
	prog      func(p *Proc, ops *int)
	park      func(n *Node) // drives the node to the peek point
	wantUntil simtime.Guest
	wantBusy  bool
}

func (c quietCase) build() (*Node, *int) {
	ops := new(int)
	n := NewNode(0, 2, DefaultConfig(), func(p *Proc) error {
		*ops++
		c.prog(p, ops)
		return nil
	})
	if c.park != nil {
		c.park(n)
	}
	return n, ops
}

func g(d simtime.Duration) simtime.Guest { return simtime.Guest(d) }

// TestQuietUntilAgainstStep pins QuietUntil at every boundary against what
// Step actually does: stepping to a limit strictly below the reported time
// must yield the quiet signature with the workload never resumed, and
// AdvanceQuiet must leave the node indistinguishable from the stepped one;
// stepping to a limit equal to it must not — something happens there.
func TestQuietUntilAgainstStep(t *testing.T) {
	for _, c := range quietCases() {
		t.Run(c.name, func(t *testing.T) {
			n, _ := c.build()
			now := n.Clock()
			until, busy := n.QuietUntil()
			n.Shutdown()
			if until != c.wantUntil || busy != c.wantBusy {
				t.Fatalf("QuietUntil = (%v, %v), want (%v, %v)", until, busy, c.wantUntil, c.wantBusy)
			}

			limits := []simtime.Guest{now + 1, now + g(100*us)}
			if until != simtime.GuestInfinity {
				limits = append(limits, until-1, until, until+1)
			}
			for _, limit := range limits {
				if limit <= now {
					continue
				}
				stepped, ops := c.build()
				before := *ops
				trace := quantumTrace(stepped, limit)
				quiet := *ops == before &&
					reflect.DeepEqual(trace, quietSignature(now, limit, busy, stepped.Done()))
				if want := until > limit; quiet != want {
					t.Errorf("limit %v: QuietUntil %v says quiet=%v, but stepping gives %v (workload resumed %d times)",
						limit, until, want, trace, *ops-before)
				}
				if until > limit {
					peeked, _ := c.build()
					peeked.AdvanceQuiet(limit, busy)
					compareNodes(t, fmt.Sprintf("limit %v", limit), peeked, stepped)
					peeked.Shutdown()
				}
				stepped.Shutdown()
			}
		})
	}
}

// TestAdvanceQuietStretch pins the two facts the engine's lazy guest clocks
// rest on (DESIGN.md §7.1), over the same parked states: catching a node up
// across k quiet quanta in one AdvanceQuiet leaves exactly the node k
// per-quantum calls leave — clock, owed overhead, next peek and everything it
// does afterwards — and QuietUntil on the node not yet caught up already
// returns what it returns on the caught-up one, because every time it reports
// is absolute.
func TestAdvanceQuietStretch(t *testing.T) {
	stretches := 0
	for _, c := range quietCases() {
		t.Run(c.name, func(t *testing.T) {
			lagging, _ := c.build()
			defer lagging.Shutdown()
			now := lagging.Clock()
			until, busy := lagging.QuietUntil()
			// The longest stretch of k quanta of length q ending strictly
			// below until; an unbounded horizon gets an arbitrary one.
			const k = 7
			end := until - 1
			if until == simtime.GuestInfinity {
				end = now + g(100*us)
			}
			q := (end - now) / k
			if q < 1 {
				return // the node acts at once: there is no stretch to cross
			}
			stretches++

			perQuantum, _ := c.build()
			defer perQuantum.Shutdown()
			for i := simtime.Guest(1); i <= k; i++ {
				perQuantum.AdvanceQuiet(now+i*q, busy)
				if i == k/2 {
					// A barrier delivers to a lagging node like to any other;
					// the arrival lies past the stretch, so it stays quiet.
					f := &pkt.Frame{ID: 50}
					lagging.Deliver(f, now+k*q+1)
					perQuantum.Deliver(f, now+k*q+1)
				}
				u, b := perQuantum.QuietUntil()
				if lu, lb := lagging.QuietUntil(); lu != u || lb != b {
					t.Fatalf("after %d quanta: the lagging node peeks (%v,%v), the advanced one (%v,%v)", i, lu, lb, u, b)
				}
			}
			lagging.AdvanceQuiet(now+k*q, busy)
			if lagging.overhead != perQuantum.overhead {
				t.Errorf("owed overhead: one call leaves %v, %d calls leave %v", lagging.overhead, k, perQuantum.overhead)
			}
			compareNodes(t, fmt.Sprintf("stretch of %d x %v", k, q), lagging, perQuantum)
		})
	}
	if stretches < 8 {
		t.Errorf("only %d cases had a quiet stretch to cross: the comparison is nearly vacuous", stretches)
	}
}

// quietCases are the parked states the quiet-peek tests share: every kind of
// pending op at every boundary.
func quietCases() []quietCase {
	frame := func(id uint64) *pkt.Frame { return &pkt.Frame{ID: id} }
	toLimit := func(limit simtime.Guest) func(*Node) {
		return func(n *Node) { quantumTrace(n, limit) }
	}
	return []quietCase{
		{
			// Q == 10µs: the op ends exactly at the limit and the workload
			// resumes inside the quantum.
			name:      "compute overhead == Q",
			prog:      func(p *Proc, ops *int) { p.Compute(1 * us); *ops++; p.Compute(10 * us); *ops++ },
			park:      toLimit(g(1 * us)),
			wantUntil: g(11 * us), wantBusy: true,
		},
		{
			name:      "compute overhead == Q+1",
			prog:      func(p *Proc, ops *int) { p.Compute(1 * us); *ops++; p.Compute(10*us + 1); *ops++ },
			park:      toLimit(g(1 * us)),
			wantUntil: g(11*us + 1), wantBusy: true,
		},
		{
			name: "send overhead straddling the boundary",
			prog: func(p *Proc, ops *int) {
				p.Compute(10*us - 300*ns)
				*ops++
				p.Send(1, pkt.ProtoRaw, 64, nil)
				*ops++
			},
			park:      toLimit(g(10 * us)),
			wantUntil: g(10*us + 400*ns), wantBusy: true,
		},
		{
			// The first frame of a train left at 700ns and 300ns of the
			// second one's overhead are charged: the request stays pending
			// with 400ns owed and the workload is not involved.
			name: "mid-train, overhead owed",
			prog: func(p *Proc, ops *int) {
				p.SendTrain(sizes{64, 64, 64}, 3)
				*ops++
			},
			park:      toLimit(g(1 * us)),
			wantUntil: g(1*us + 400*ns), wantBusy: true,
		},
		{
			name:      "sink installed, queue empty",
			prog:      func(p *Proc, ops *int) { p.RecvSink(g(50*us), absorbAll{}); *ops++ },
			park:      toLimit(g(10 * us)),
			wantUntil: g(50 * us),
		},
		{
			name: "sink installed, arrival queued",
			prog: func(p *Proc, ops *int) { p.RecvSink(g(50*us), absorbAll{}); *ops++ },
			park: func(n *Node) {
				n.Deliver(frame(7), g(20*us))
				quantumTrace(n, g(10*us))
			},
			wantUntil: g(20 * us),
		},
		{
			name:      "recv deadline",
			prog:      func(p *Proc, ops *int) { p.RecvDeadline(g(20 * us)); *ops++ },
			park:      toLimit(g(10 * us)),
			wantUntil: g(20 * us),
		},
		{
			name: "recv queued arrival before the deadline",
			prog: func(p *Proc, ops *int) { p.RecvDeadline(g(50 * us)); *ops++ },
			park: func(n *Node) {
				n.Deliver(frame(7), g(20*us))
				quantumTrace(n, g(10*us))
			},
			wantUntil: g(20 * us),
		},
		{
			name:      "recv with nothing queued and no deadline",
			prog:      func(p *Proc, ops *int) { p.Recv(); *ops++ },
			park:      toLimit(g(10 * us)),
			wantUntil: simtime.GuestInfinity,
		},
		{
			name: "recv arrival already visible",
			prog: func(p *Proc, ops *int) { p.Recv(); *ops++ },
			park: func(n *Node) {
				quantumTrace(n, g(10*us))
				n.Deliver(frame(7), g(10*us)) // snapped to the boundary
			},
			wantUntil: g(10 * us),
		},
		{
			// The deadline == now state of TryRecv, held open: woken at the
			// deadline but not yet stepped.
			name: "recv deadline == now",
			prog: func(p *Proc, ops *int) { p.RecvDeadline(g(10 * us)); *ops++ },
			park: func(n *Node) {
				n.BeginQuantum(g(10 * us))
				n.Step()
				n.WakeAt(g(10 * us))
			},
			wantUntil: g(10 * us),
		},
		{
			// TryRecv on an empty queue never stays pending: it completes
			// in the same Step and the next op is what the peek sees.
			name: "TryRecv empty, then compute",
			prog: func(p *Proc, ops *int) {
				p.Compute(10 * us)
				*ops++
				p.TryRecv()
				*ops++
				p.Compute(5 * us)
				*ops++
			},
			park:      toLimit(g(10 * us)),
			wantUntil: g(15 * us), wantBusy: true,
		},
		{
			// TryRecv consuming a frame at the limit: the arrival is held
			// (haveRecv) while its receive overhead is still owed.
			name: "mid RecvOverhead",
			prog: func(p *Proc, ops *int) { p.Compute(10 * us); *ops++; p.TryRecv(); *ops++ },
			park: func(n *Node) {
				n.Deliver(frame(7), g(4*us))
				quantumTrace(n, g(10*us))
			},
			wantUntil: g(10*us + 700*ns), wantBusy: true,
		},
		{
			name:      "sleep",
			prog:      func(p *Proc, ops *int) { p.Sleep(25 * us); *ops++ },
			park:      toLimit(g(10 * us)),
			wantUntil: g(25 * us),
		},
		{
			name:      "done",
			prog:      func(p *Proc, ops *int) { p.Compute(5 * us); *ops++ },
			park:      toLimit(g(10 * us)),
			wantUntil: simtime.GuestInfinity,
		},
		{
			name:      "never started",
			prog:      func(p *Proc, ops *int) { p.Compute(simtime.Second); *ops++ },
			wantUntil: 0,
		},
		{
			// The compute ended exactly at the previous limit and is still
			// pending with nothing owed: the next Step resumes the workload.
			name:      "op completed at the previous limit",
			prog:      func(p *Proc, ops *int) { p.Compute(10 * us); *ops++; p.Compute(simtime.Second); *ops++ },
			park:      func(n *Node) { n.BeginQuantum(g(10 * us)); n.Step() },
			wantUntil: g(10 * us),
		},
	}
}

// sizes is a frame source: a train of raw frames to node 1, one per size.
type sizes []int

func (s sizes) Frame(k int) (int, pkt.Proto, int, []byte) { return 1, pkt.ProtoRaw, s[k], nil }

// absorbAll is a frame sink that consumes whatever arrives.
type absorbAll struct{}

func (absorbAll) Absorb(Arrival) bool { return true }

// compareNodes requires two nodes to be at the same clock and to behave
// identically from here on: both receive the same frame and are stepped
// through the same quanta until they finish.
func compareNodes(t *testing.T, label string, a, b *Node) {
	t.Helper()
	if a.Clock() != b.Clock() {
		t.Fatalf("%s: clocks differ: advanced %v, stepped %v", label, a.Clock(), b.Clock())
	}
	ua, ba := a.QuietUntil()
	ub, bb := b.QuietUntil()
	if ua != ub || ba != bb {
		t.Errorf("%s: next peek differs: advanced (%v,%v), stepped (%v,%v)", label, ua, ba, ub, bb)
	}
	f := &pkt.Frame{ID: 99}
	at := a.Clock() + g(3*us)
	a.Deliver(f, at)
	b.Deliver(f, at)
	for q := 0; q < 64 && !(a.Done() && b.Done()); q++ {
		limit := a.Clock() + g(7*us)
		ta, tb := quantumTrace(a, limit), quantumTrace(b, limit)
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("%s: quantum to %v diverges:\n advanced %v\n stepped  %v", label, limit, ta, tb)
		}
	}
	if !a.Done() || a.FinishedAt() != b.FinishedAt() {
		t.Errorf("%s: finish differs: advanced (%v,%v), stepped (%v,%v)",
			label, a.Done(), a.FinishedAt(), b.Done(), b.FinishedAt())
	}
}

// AdvanceQuiet refuses the two misuses that would silently corrupt a node:
// moving backwards, and swallowing the end of the pending op.
func TestAdvanceQuietPanics(t *testing.T) {
	mk := func() *Node {
		n := NewNode(0, 1, DefaultConfig(), func(p *Proc) error {
			p.Compute(20 * us)
			return nil
		})
		quantumTrace(n, g(10*us))
		return n
	}
	for _, c := range []struct {
		name  string
		limit simtime.Guest
	}{
		{"backwards", g(5 * us)},
		{"op ends inside", g(20 * us)},
	} {
		t.Run(c.name, func(t *testing.T) {
			limit := c.limit
			n := mk()
			defer n.Shutdown()
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceQuiet(%v, busy) did not panic", limit)
				}
			}()
			n.AdvanceQuiet(limit, true)
		})
	}
}
