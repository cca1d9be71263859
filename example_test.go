package clustersim_test

import (
	"fmt"

	"clustersim"
	"clustersim/internal/mpi"
)

// Example builds a small bulk-synchronous application with the guest process
// API — five rounds of 2ms of compute, an all-to-all of 32 KiB per peer and an
// allreduce — and simulates the same 8-node cluster three ways: ground truth
// (Q = 1µs), a coarse fixed quantum, and the paper's adaptive quantum.
func Example() {
	program := func(rank, size int) clustersim.Program {
		return func(p *clustersim.Proc) error {
			comm := mpi.New(p)
			start := p.Now()
			for phase := 0; phase < 5; phase++ {
				p.Compute(2 * clustersim.Millisecond)
				comm.Alltoall(32 << 10)
				comm.Allreduce(8)
			}
			if rank == 0 {
				p.Report("time_s", clustersim.Duration(p.Now()-start).Seconds())
			}
			return nil
		}
	}
	configs := []struct {
		name   string
		policy func() clustersim.QuantumPolicy
	}{
		{"Q=1µs (truth)", clustersim.FixedQuantum(1 * clustersim.Microsecond)},
		{"Q=1ms", clustersim.FixedQuantum(1 * clustersim.Millisecond)},
		{"adaptive", clustersim.AdaptiveQuantum(1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)},
	}
	var truth *clustersim.Result
	var tTruth float64
	fmt.Printf("%-14s %-12s %-14s %-10s %s\n", "config", "app time", "host time", "speedup", "stragglers")
	for _, c := range configs {
		cfg := clustersim.NewConfig(8, program)
		cfg.Policy = c.policy
		res, err := clustersim.Run(cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		t, _ := res.Metric("time_s")
		if truth == nil {
			truth, tTruth = res, t
		}
		fmt.Printf("%-14s %-12.6f %-14v %8.1fx  %d\n", c.name, t, res.HostTime,
			float64(truth.HostTime)/float64(res.HostTime), res.Stats.Stragglers)
		switch c.name {
		case "Q=1ms":
			fmt.Printf("%-14s ^ app time off by %.1f%% — the cost of coarse synchronization\n",
				"", 100*(t-tTruth)/tTruth)
		case "adaptive":
			fmt.Printf("\nadaptive quantum ranged %v..%v (mean %v) over %d quanta\n",
				res.Stats.MinQ, res.Stats.MaxQ, res.Stats.MeanQ, res.Stats.Quanta)
		}
	}
	// Output:
	// config         app time     host time      speedup    stragglers
	// Q=1µs (truth)  0.010240     13.59s              1.0x  0
	// Q=1ms          0.027818     304.513ms          44.6x  899
	//                ^ app time off by 171.7% — the cost of coarse synchronization
	// adaptive       0.010511     1.456s              9.3x  183
	//
	// adaptive quantum ranged 1µs..60.865µs (mean 11.352µs) over 926 quanta
}

// ExampleRun simulates a two-node ping over the paper's network at ground
// truth; the engine is deterministic, so the printed numbers are exact.
func ExampleRun() {
	program := func(rank, size int) clustersim.Program {
		return func(p *clustersim.Proc) error {
			comm := mpi.New(p)
			if rank == 0 {
				comm.Send(1, 1, 1000)
				m := comm.Recv(1, 2)
				p.Report("reply_us", clustersim.Duration(m.Arrival).Microseconds())
			} else {
				comm.Recv(0, 1)
				comm.Send(0, 2, 1000)
			}
			return nil
		}
	}
	res, err := clustersim.Run(clustersim.NewConfig(2, program))
	if err != nil {
		fmt.Println(err)
		return
	}
	reply, _ := res.Metric("reply_us")
	fmt.Printf("reply at %.3fµs, stragglers: %d\n", reply, res.Stats.Stragglers)
	// Output: reply at 4.316µs, stragglers: 0
}

// ExampleAdaptiveQuantum shows Algorithm 1 growing the quantum through a
// silent compute phase.
func ExampleAdaptiveQuantum() {
	program := func(rank, size int) clustersim.Program {
		return func(p *clustersim.Proc) error {
			p.Compute(2 * clustersim.Millisecond) // silence: the quantum grows
			return nil
		}
	}
	cfg := clustersim.NewConfig(4, program)
	cfg.Policy = clustersim.AdaptiveQuantum(
		1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.05, 0.02)
	res, err := clustersim.Run(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("quanta: %d (a fixed 1µs quantum would need 2000), max Q: %v\n",
		res.Stats.Quanta, res.Stats.MaxQ)
	// Output: quanta: 95 (a fixed 1µs quantum would need 2000), max Q: 98.128µs
}

// ExampleRecommendedDec reproduces the paper's rule of thumb for the
// quantum decrease factor.
func ExampleRecommendedDec() {
	dec := clustersim.RecommendedDec(1*clustersim.Microsecond, 1000*clustersim.Microsecond)
	fmt.Printf("dec ≈ %.4f (the paper uses 0.02 for this range)\n", dec)
	// Output: dec ≈ 0.0316 (the paper uses 0.02 for this range)
}
