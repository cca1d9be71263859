// Adaptive-quantum visualization: run a compute/communicate phase workload
// under Algorithm 1 and chart the quantum "driving over speed bumps" — it
// climbs during silent compute phases and collapses the moment packets
// appear.
package main

import (
	"fmt"
	"log"

	"clustersim"
	"clustersim/internal/netmodel"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

func main() {
	w := workloads.Phases(6, 3*clustersim.Millisecond, 128<<10)

	cfg := clustersim.NewConfig(4, w.New)
	cfg.Policy = clustersim.AdaptiveQuantum(
		1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.05, 0.02)
	rec := &clustersim.Recorder{}
	cfg.Observer = rec
	res, err := clustersim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("6 compute phases of 3ms, each followed by a 128 KiB all-to-all burst (4 nodes)\n\n")
	fmt.Print(trace.TrafficChart(rec.Packets, 4, res.GuestTime, 100))
	fmt.Println()
	series := trace.QuantumSeries(rec.Quanta, 100, res.GuestTime)
	fmt.Print(trace.LogChart(series, 1, 1100, 10, "synchronization quantum (µs)"))
	fmt.Printf("\nquanta: %d (%d silent), packets: %d, stragglers: %d, straggler delay: %v\n",
		res.Stats.Quanta, res.Stats.SilentQuanta, res.Stats.Packets,
		res.Stats.Stragglers, res.Stats.StragglerDelay)

	// The same run under ground truth, for the cost comparison.
	cfg2 := clustersim.NewConfig(4, w.New)
	truth, err := clustersim.Run(cfg2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host time: %v adaptive vs %v ground truth → %.1fx faster\n",
		res.HostTime, truth.HostTime, float64(truth.HostTime)/float64(res.HostTime))

	// The same adaptive policy on a mixed topology — a tight 500ns rack of
	// four plus four 50µs WAN nodes — shows the graded fast path: as the
	// quantum climbs past the intra-rack latency the engine no longer
	// switches the fast path off wholesale, it keeps fast-walking the loose
	// WAN nodes while only the rack falls back to the event queue.
	lat := make([][]clustersim.Duration, 8)
	for s := range lat {
		lat[s] = make([]clustersim.Duration, 8)
		for d := range lat[s] {
			switch {
			case s == d:
			case s < 4 && d < 4:
				lat[s][d] = 500 * clustersim.Nanosecond
			default:
				lat[s][d] = 50 * clustersim.Microsecond
			}
		}
	}
	cfg3 := clustersim.NewConfig(8, w.New)
	cfg3.Policy = clustersim.AdaptiveQuantum(
		1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.05, 0.02)
	cfg3.Net.Switch = &netmodel.MatrixSwitch{Lat: lat}
	mixed, err := clustersim.Run(cfg3)
	if err != nil {
		log.Fatal(err)
	}
	s := mixed.Stats
	fmt.Printf("\nmixed rack+WAN topology (8 nodes, adaptive quantum):\n")
	fmt.Printf("fast path: %d/%d quanta fully engaged, %d partially engaged",
		s.FastFullQuanta, s.Quanta, s.FastPartialQuanta)
	if s.FastPartialQuanta > 0 {
		fmt.Printf(" (avg %.1f of %.1f partitions fast)",
			float64(s.FastNodeQuanta-8*s.FastFullQuanta)/float64(s.FastPartialQuanta),
			float64(s.PartialPartitions)/float64(s.FastPartialQuanta))
	}
	fmt.Println()
}
