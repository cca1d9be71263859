package cluster

import (
	"fmt"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestBroadcastReachesAllPeers: a link-layer broadcast must be delivered to
// every node except the sender, each with its own exact arrival time.
func TestBroadcastReachesAllPeers(t *testing.T) {
	const nodes = 6
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
	res, err := Run(testConfig(nodes, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < nodes; r++ {
		if counts[r] != 1 {
			t.Errorf("rank %d received %d broadcast copies", r, counts[r])
		}
	}
	if res.Stats.Deliveries != nodes-1 {
		t.Errorf("expected %d deliveries, got %d", nodes-1, res.Stats.Deliveries)
	}
	if res.Stats.Stragglers != 0 {
		t.Error("broadcast at ground truth produced stragglers")
	}
}

// TestSelfSendLoopsThroughSwitch: a frame addressed to the sender itself is
// routed like any other and arrives after the network latency.
func TestSelfSendLoopsThroughSwitch(t *testing.T) {
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
	res, err := Run(testConfig(2, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deliveries != 1 {
		t.Fatalf("expected 1 delivery, got %d", res.Stats.Deliveries)
	}
	if arrival < simtime.Guest(simtime.Microsecond) {
		t.Errorf("self-send arrived at %v, before the NIC latency", arrival)
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
	res, err := Run(testConfig(2, w, fixed(simtime.Microsecond)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets != 1 || res.Stats.Deliveries != 0 {
		t.Errorf("stray frame: packets=%d deliveries=%d", res.Stats.Packets, res.Stats.Deliveries)
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
