package cluster

import (
	"math/rand"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// streamTape keeps each quantum's partitioning and its NodePhase and Packet
// records in stream order.
type streamTape struct {
	obs.Base
	quanta []*streamQuantum
}

type streamQuantum struct {
	part []int32 // node -> partition id
	recs []any   // phaseHook | obs.PacketRecord
}

func (s *streamTape) QuantumStart(int, simtime.Guest, simtime.Duration, simtime.Host) {
	s.quanta = append(s.quanta, &streamQuantum{})
}
func (s *streamTape) cur() *streamQuantum { return s.quanta[len(s.quanta)-1] }
func (s *streamTape) QuantumPartition(_ int, p *obs.Partitioning) {
	s.cur().part = p.Part
}
func (s *streamTape) Packet(rec obs.PacketRecord) { s.cur().recs = append(s.cur().recs, rec) }
func (s *streamTape) NodePhase(node int, ph obs.Phase, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	s.cur().recs = append(s.cur().recs, phaseHook{len(s.quanta) - 1, node, ph, g0, g1, h0, h1})
}

// TestStreamOrderContract holds the observer stream to the order DESIGN.md §7
// ("Stream order") promises inside one quantum, read off the partitioning the
// stream itself carries: the tight partitions in partition-id order, each in
// host-event order — a busy segment and a finish are reported when they
// start, an idle segment when it ends — or, fast-forwarded, one record per
// member in member order; then the loose nodes in node order, each node's
// records contiguous and ascending in host time; then the frames routed at
// the barrier, everything not sent inside one tight partition, in canonical
// (source node, send-sequence) order. A quantum the quiet pass executes whole
// is one record per node, in node order. The differentials compare NodePhase
// hooks as per-quantum multisets; this is the test that sees a reordering.
func TestStreamOrderContract(t *testing.T) {
	cases := append(fastCases(), sparseCase(15))
	rnd := rand.New(rand.NewSource(20261002))
	for trial := 0; trial < 8; trial++ {
		c, _ := randomFatTreeCase(rnd, trial)
		cases = append(cases, c)
	}
	var tightEvents, looseRecs, barrierPkts, skippedTight int
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tape := &streamTape{}
			cfg := c.config()
			cfg.Observer = tape
			skipped := map[nodeQuantum]bool{}
			cfg.onQuiet = func(qi, node int) bool {
				skipped[nodeQuantum{qi, node}] = true
				return true
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			for qi, q := range tape.quanta {
				if q.part == nil {
					t.Fatalf("quantum %d carries no partitioning", qi)
				}
				size := map[int32]int{}
				quiet := true
				for node, p := range q.part {
					size[p]++
					quiet = quiet && skipped[nodeQuantum{qi, node}]
				}
				tight := func(node int) bool { return size[q.part[node]] > 1 }
				// stage orders the quantum's three parts and, inside the first
				// two, the partitions and the loose nodes; a quiet quantum is
				// node order throughout.
				stage := func(rec any) [2]int {
					switch r := rec.(type) {
					case phaseHook:
						switch {
						case quiet:
							return [2]int{0, r.node}
						case tight(r.node):
							return [2]int{0, int(q.part[r.node])}
						}
						return [2]int{1, r.node}
					case obs.PacketRecord:
						if tight(r.Src) && q.part[r.Src] == q.part[r.Dst] {
							return [2]int{0, int(q.part[r.Src])}
						}
						return [2]int{2, r.Src}
					}
					panic("unreachable")
				}
				var prev [2]int
				var at simtime.Host // host-event time within a partition / end of a loose node's last record
				var sent simtime.Guest
				lastMember := -1 // last fast-forwarded member of the current stage
				seen := map[int]bool{}
				for k, rec := range q.recs {
					st := stage(rec)
					if st[0] < prev[0] || st[0] == prev[0] && st[1] < prev[1] {
						t.Fatalf("quantum %d record %d %+v (stage %v) follows stage %v", qi, k, rec, st, prev)
					}
					if st != prev {
						at, sent, lastMember = 0, 0, -1
					}
					prev = st
					switch r := rec.(type) {
					case phaseHook:
						switch {
						case skipped[nodeQuantum{qi, r.node}]:
							if r.node <= lastMember || seen[r.node] || r.ph == obs.PhaseDone {
								t.Fatalf("quantum %d: fast-forwarded node %d reports %+v after node %d", qi, r.node, r, lastMember)
							}
							lastMember, seen[r.node] = r.node, true
							if tight(r.node) {
								skippedTight++
							}
						case st[0] == 0:
							ev := r.h0
							if r.ph == obs.PhaseIdle {
								ev = r.h1
							}
							if ev < at {
								t.Fatalf("quantum %d partition %d: %+v is reported at host %v, after an event at %v", qi, st[1], r, ev, at)
							}
							at = ev
							tightEvents++
						default:
							if r.h0 < at || r.h1 < r.h0 {
								t.Fatalf("quantum %d loose node %d: %+v starts before %v, where its previous record ended", qi, r.node, r, at)
							}
							at = r.h1
							looseRecs++
						}
					case obs.PacketRecord:
						if st[0] != 2 {
							continue
						}
						if r.SendGuest < sent {
							t.Fatalf("quantum %d: barrier-routed %+v was sent before its predecessor (%v)", qi, r, sent)
						}
						sent = r.SendGuest
						barrierPkts++
					}
				}
			}
		})
	}
	if tightEvents == 0 || looseRecs == 0 || barrierPkts == 0 || skippedTight == 0 {
		t.Errorf("vacuous: %d tight-partition events, %d loose records, %d barrier-routed packets, %d fast-forwarded tight node-quanta",
			tightEvents, looseRecs, barrierPkts, skippedTight)
	}
}
