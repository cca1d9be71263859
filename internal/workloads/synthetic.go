package workloads

import (
	"fmt"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/msg"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// PingPong bounces a message of the given size between ranks 0 and 1 the
// given number of rounds and reports the mean roundtrip latency in
// microseconds from rank 0 — the microbenchmark behind the paper's Figure 3
// roundtrip discussion.
func PingPong(rounds, size int) Workload {
	return Workload{
		Name:   "synthetic.pingpong",
		Key:    fmt.Sprintf("synthetic.pingpong|%d|%d", rounds, size),
		Metric: "rtt_us",
		New: func(rank, clusterSize int) guest.Program {
			return func(pr *guest.Proc) error {
				if clusterSize < 2 {
					return fmt.Errorf("pingpong needs at least 2 nodes, got %d", clusterSize)
				}
				c := mpi.New(pr)
				switch rank {
				case 0:
					start := pr.Now()
					for r := 0; r < rounds; r++ {
						c.Send(1, 1, size)
						c.Recv(1, 2)
					}
					total := pr.Now().Sub(start)
					pr.Report("rtt_us", total.Microseconds()/float64(rounds))
				case 1:
					for r := 0; r < rounds; r++ {
						c.Recv(0, 1)
						c.Send(0, 2, size)
					}
				}
				return nil
			}
		},
	}
}

// Silent computes for the given duration per rank and never communicates:
// the best case for quantum growth (and the pure-overhead calibration
// workload).
func Silent(compute simtime.Duration) Workload {
	return Workload{
		Name:   "synthetic.silent",
		Key:    fmt.Sprintf("synthetic.silent|%v", compute),
		Metric: "time_s",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				start := pr.Now()
				pr.Compute(compute)
				if rank == 0 {
					pr.Report("time_s", seconds(pr.Now().Sub(start)))
				}
				return nil
			}
		},
	}
}

// Phases alternates silent compute phases with alltoall communication
// bursts: the canonical compute/communicate cycle of distributed
// applications the adaptive algorithm is designed around ("driving over
// speed bumps").
func Phases(phases int, compute simtime.Duration, burstBytes int) Workload {
	return Workload{
		Name:   "synthetic.phases",
		Key:    fmt.Sprintf("synthetic.phases|%d|%v|%d", phases, compute, burstBytes),
		Metric: "time_s",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				start := pr.Now()
				for ph := 0; ph < phases; ph++ {
					pr.Compute(compute)
					c.Alltoall(burstBytes / size)
				}
				c.Barrier()
				if rank == 0 {
					pr.Report("time_s", seconds(pr.Now().Sub(start)))
				}
				return nil
			}
		},
	}
}

// ReliablePhases is Phases run over the reliable transport: the same
// compute/alltoall cycle, but every message is acknowledged and retransmitted
// on loss, so the workload completes (rather than stalls) under fault
// injection. Each rank flushes its in-flight messages, stays responsive
// through a drain window so peers' final retransmissions find an acker, and
// publishes the transport counters (msg_retransmits, msg_timeouts, ...) as
// node metrics. A delivery failure (a message abandoned after the transport's
// retry cap) fails the rank's program and thus the run.
func ReliablePhases(phases int, compute simtime.Duration, burstBytes int) Workload {
	return Workload{
		Name:   "synthetic.reliable-phases",
		Key:    fmt.Sprintf("synthetic.reliable-phases|%d|%v|%d", phases, compute, burstBytes),
		Metric: "time_s",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				cfg := msg.DefaultConfig()
				cfg.Reliable = true
				c := mpi.NewWithConfig(pr, cfg)
				start := pr.Now()
				for ph := 0; ph < phases; ph++ {
					pr.Compute(compute)
					c.Alltoall(burstBytes / size)
				}
				c.Barrier()
				if err := c.Flush(); err != nil {
					return err
				}
				c.Drain(30 * simtime.Millisecond)
				c.Endpoint().ReportMetrics()
				if rank == 0 {
					pr.Report("time_s", seconds(pr.Now().Sub(start)))
				}
				return nil
			}
		},
	}
}

// Uniform sends messages of the given size to random destinations at random
// exponential intervals with the given mean, for the given count per rank —
// unstructured background traffic for ablations.
func Uniform(count, size int, meanGap simtime.Duration, seed uint64) Workload {
	return Workload{
		Name:   "synthetic.uniform",
		Key:    fmt.Sprintf("synthetic.uniform|%d|%d|%v|%d", count, size, meanGap, seed),
		Metric: "time_s",
		New: func(rank, clusterSize int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				r := rng.New(seed).Split(uint64(rank))
				sent := 0
				recvd := 0
				// Each rank both produces its own traffic and consumes
				// whatever arrives; termination is by message count.
				for sent < count {
					gap := simtime.Duration(r.Exp(float64(meanGap)))
					deadline := pr.Now().Add(gap)
					for {
						m, ok := c.Endpoint().RecvDeadline(-1, -1, deadline)
						if !ok {
							break
						}
						_ = m
						recvd++
					}
					dst := r.Intn(clusterSize - 1)
					if dst >= rank {
						dst++
					}
					c.Send(dst, 7, size)
					sent++
				}
				// Drain: every rank sends exactly count messages, but the
				// recipients are random, so just wait out a quiet period.
				for {
					m, ok := c.Endpoint().RecvDeadline(-1, -1, pr.Now().Add(5*simtime.Millisecond))
					if !ok {
						break
					}
					_ = m
					recvd++
				}
				if rank == 0 {
					pr.Report("time_s", seconds(simtime.Duration(pr.Now())))
					pr.Report("received", float64(recvd))
				}
				return nil
			}
		},
	}
}
