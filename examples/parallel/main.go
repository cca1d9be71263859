// Real parallel execution: run the same cluster simulation with one OS
// goroutine per simulated node, synchronized by a real barrier — the shape
// of the paper's actual deployment. Wall-clock time is real; straggler races
// come from the Go scheduler, so repeated runs differ slightly, exactly as
// the paper's physical testbed did.
package main

import (
	"flag"
	"fmt"
	"log"

	"clustersim"
	"clustersim/internal/workloads"
)

func main() {
	nodes := flag.Int("nodes", 8, "simulated nodes (each a goroutine)")
	spin := flag.Float64("spin", 0.05, "real ns of host CPU burned per guest busy ns")
	flag.Parse()

	w := workloads.Phases(5, 2*clustersim.Millisecond, 64<<10)

	fmt.Printf("running %d node goroutines, spin factor %.2f\n\n", *nodes, *spin)
	fmt.Printf("%-22s %12s %12s %10s %12s\n", "policy", "guest time", "wall clock", "quanta", "stragglers")
	for _, p := range []struct {
		name   string
		policy func() clustersim.QuantumPolicy
	}{
		{"Q=10µs", clustersim.FixedQuantum(10 * clustersim.Microsecond)},
		{"Q=1000µs", clustersim.FixedQuantum(1000 * clustersim.Microsecond)},
		{"adaptive 1:1000", clustersim.AdaptiveQuantum(1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)},
	} {
		cfg := clustersim.NewConfig(*nodes, w.New)
		cfg.Policy = p.policy
		cfg.MaxGuest = clustersim.GuestTime(60 * clustersim.Second)
		res, err := clustersim.RunParallel(cfg, *spin)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12v %12v %10d %12d\n",
			p.name, res.GuestTime, res.HostTime, res.Stats.Quanta, res.Stats.Stragglers)
	}
	fmt.Println("\nnote: wall clock and straggler counts vary run to run — that nondeterminism")
	fmt.Println("is the physical phenomenon the deterministic engine models with its host seed.")
}
