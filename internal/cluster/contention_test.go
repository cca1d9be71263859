package cluster

import (
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// contendedNet returns the paper network plus a 10 GB/s output-queued
// switch port per destination.
func contendedNet() *netmodel.Model {
	m := netmodel.Paper()
	m.Output = &netmodel.OutputQueue{BytesPerSecond: 10e9, Latency: 200 * simtime.Nanosecond}
	return m
}

// incast: every rank but 0 sends one jumbo message to rank 0 at t=0.
func incast(msgBytes int) workloads.Workload {
	return workloads.Workload{
		Name:   "incast",
		Metric: "last_us",
		New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				ep := msg.New(p)
				if rank != 0 {
					ep.Send(0, 1, msgBytes)
					return nil
				}
				var last simtime.Guest
				for i := 0; i < size-1; i++ {
					m := ep.Recv(msg.Any, 1)
					last = m.Arrival
				}
				p.Report("last_us", simtime.Duration(last).Microseconds())
				return nil
			}
		},
	}
}

func TestOutputQueueDelaysIncast(t *testing.T) {
	w := incast(8 << 10)
	perfect := testConfig(8, w, fixed(simtime.Microsecond))
	res1, err := Run(perfect)
	if err != nil {
		t.Fatal(err)
	}
	contended := testConfig(8, w, fixed(simtime.Microsecond))
	contended.Net = contendedNet()
	res2, err := Run(contended)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := res1.Metric("last_us")
	l2, _ := res2.Metric("last_us")
	if l2 <= l1 {
		t.Errorf("incast under port contention finished at %vµs, not later than perfect switch %vµs", l2, l1)
	}
	// Seven 8KiB senders drain through one 10GB/s port: the last arrival
	// must be pushed back by roughly 6 × ~0.83µs of queueing.
	if l2-l1 < 2 {
		t.Errorf("contention delay %vµs implausibly small", l2-l1)
	}
	t.Logf("incast completion: perfect %vµs, contended %vµs", l1, l2)
}

func TestOutputQueueStillNoStragglersAtGroundTruth(t *testing.T) {
	// Port contention only increases latencies, so Q <= T remains safe.
	w := incast(8 << 10)
	cfg := testConfig(8, w, fixed(simtime.Microsecond))
	cfg.Net = contendedNet()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stragglers != 0 {
		t.Errorf("contended ground truth produced %d stragglers", res.Stats.Stragglers)
	}
}

func TestOutputQueueDeterministic(t *testing.T) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 32<<10)
	cfg := testConfig(6, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.04, 0.05))
	cfg.Net = contendedNet()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.GuestTime != b.GuestTime || a.Stats != b.Stats {
		t.Error("contended runs not deterministic")
	}
}

func TestLossValidation(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	cfg := testConfig(2, w, fixed(simtime.Microsecond))
	cfg.Faults = &faults.Plan{Default: faults.Link{Loss: 1.0}}
	if _, err := Run(cfg); err == nil {
		t.Error("Loss=1 accepted")
	}
	cfg.Faults = &faults.Plan{Default: faults.Link{Loss: -0.1}}
	if _, err := Run(cfg); err == nil {
		t.Error("negative Loss accepted")
	}
}
