package cluster

import (
	"fmt"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// frameWalks are the engine's two ways to route a frame: at Q = 1 µs every
// node is loose and frames route at the barrier; at Q = 100 µs, above every
// link of the Paper model, the whole cluster is one tight partition and
// frames route from the event queue. Both apply the controller's one fan-out
// rule; TestParallelBroadcastAndStray holds RunParallel to it.
var frameWalks = []struct {
	name  string
	q     simtime.Duration
	loose bool
}{
	{"barrier", simtime.Microsecond, true},
	{"event-queue", 100 * simtime.Microsecond, false},
}

// runWalk runs w at the walk's quantum and checks the run took that walk in
// every quantum.
func runWalk(t *testing.T, nodes int, w workloads.Workload, q simtime.Duration, loose bool) *Result {
	t.Helper()
	res, err := Run(testConfig(nodes, w, fixed(q)))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; loose && st.FastFullQuanta != st.Quanta || !loose && st.FastNodeQuanta != 0 {
		t.Fatalf("Q=%v: %d of %d quanta all-loose, %d loose node-quanta: not the walk under test",
			q, st.FastFullQuanta, st.Quanta, st.FastNodeQuanta)
	}
	return res
}

// TestBroadcastReachesAllPeers: a link-layer broadcast must be delivered to
// every node except the sender, each with its own exact arrival time.
func TestBroadcastReachesAllPeers(t *testing.T) {
	const nodes = 6
	for _, fw := range frameWalks {
		t.Run(fw.name, func(t *testing.T) {
			counts := make([]int, nodes)
			w := workloads.Workload{
				Name: "bcast",
				New: func(rank, size int) guest.Program {
					return func(p *guest.Proc) error {
						if rank == 0 {
							p.Broadcast(pkt.ProtoRaw, 500, nil)
							return nil
						}
						a := p.Recv()
						if !a.Frame.Dst.IsBroadcast() {
							return fmt.Errorf("rank %d got non-broadcast frame", rank)
						}
						counts[rank]++
						return nil
					}
				},
			}
			res := runWalk(t, nodes, w, fw.q, fw.loose)
			for r := 1; r < nodes; r++ {
				if counts[r] != 1 {
					t.Errorf("rank %d received %d broadcast copies", r, counts[r])
				}
			}
			if res.Stats.Deliveries != nodes-1 {
				t.Errorf("expected %d deliveries, got %d", nodes-1, res.Stats.Deliveries)
			}
			// Above T an idle receiver may race past the arrival: only the
			// ground truth rules stragglers out.
			if fw.loose && res.Stats.Stragglers != 0 {
				t.Error("broadcast at ground truth produced stragglers")
			}
		})
	}
}

// TestSelfSendLoopsThroughSwitch: a frame addressed to the sender itself is
// routed like any other and arrives after the network latency.
func TestSelfSendLoopsThroughSwitch(t *testing.T) {
	for _, fw := range frameWalks {
		t.Run(fw.name, func(t *testing.T) {
			var arrival simtime.Guest
			w := workloads.Workload{
				Name: "self",
				New: func(rank, size int) guest.Program {
					return func(p *guest.Proc) error {
						if rank != 0 {
							return nil
						}
						p.Send(0, pkt.ProtoRaw, 100, nil)
						a := p.Recv()
						arrival = a.Time
						return nil
					}
				},
			}
			res := runWalk(t, 2, w, fw.q, fw.loose)
			if res.Stats.Deliveries != 1 {
				t.Fatalf("expected 1 delivery, got %d", res.Stats.Deliveries)
			}
			if arrival < simtime.Guest(simtime.Microsecond) {
				t.Errorf("self-send arrived at %v, before the NIC latency", arrival)
			}
		})
	}
}

// TestUnknownMACIsCountedNotDelivered: traffic to a MAC outside the cluster
// is flooded nowhere but still loads the controller (counts as np).
func TestUnknownMACIsCountedNotDelivered(t *testing.T) {
	w := workloads.Workload{
		Name: "stray",
		New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				if rank == 0 {
					p.Send(99, pkt.ProtoRaw, 100, nil) // node 99 does not exist
				}
				return nil
			}
		},
	}
	for _, fw := range frameWalks {
		t.Run(fw.name, func(t *testing.T) {
			res := runWalk(t, 2, w, fw.q, fw.loose)
			if res.Stats.Packets != 1 || res.Stats.Deliveries != 0 {
				t.Errorf("stray frame: packets=%d deliveries=%d", res.Stats.Packets, res.Stats.Deliveries)
			}
		})
	}
}

// TestBroadcastFeedsAdaptivePolicy: broadcast replicas count as traffic, so
// the quantum must collapse after one.
func TestBroadcastFeedsAdaptivePolicy(t *testing.T) {
	w := workloads.Workload{
		Name: "bcast-adaptive",
		New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				p.Compute(2 * simtime.Millisecond)
				if rank == 0 {
					p.Broadcast(pkt.ProtoRaw, 100, nil)
				}
				p.Compute(500 * simtime.Microsecond)
				return nil
			}
		},
	}
	cfg := testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	_, rec := runRecorded(t, cfg)
	collapsed := false
	for i := 1; i < len(rec.Quanta); i++ {
		if rec.Quanta[i-1].Packets > 0 && rec.Quanta[i].Q < rec.Quanta[i-1].Q/10 {
			collapsed = true
		}
	}
	if !collapsed {
		t.Error("quantum never collapsed after the broadcast burst")
	}
}
