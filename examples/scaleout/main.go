// Scale-out case study: the Section 6 experiment on a simulated 64-node
// cluster — packet-traffic chart, the acceleration/accuracy table, and the
// speedup-over-time chart for the adaptive configuration.
package main

import (
	"flag"
	"fmt"
	"log"

	"clustersim"
	"clustersim/internal/experiments"
	"clustersim/internal/workloads"
)

func main() {
	bench := flag.String("bench", "nas.ep", "benchmark: nas.ep, nas.is, namd")
	nodes := flag.Int("nodes", 64, "cluster size")
	scale := flag.Float64("scale", 1.0, "workload compute scale factor")
	width := flag.Int("width", 100, "chart width")
	flag.Parse()

	env := experiments.DefaultEnv()
	var w workloads.Workload
	switch *bench {
	case "nas.ep":
		w = experiments.NASSuite(*scale)[0]
	case "nas.is":
		w = experiments.NASSuite(*scale)[1]
	case "namd":
		w = experiments.NAMDWorkload(*scale)
	default:
		log.Fatalf("unknown benchmark %q", *bench)
	}

	dyn := experiments.DynSpec("dyn 1:100",
		1*clustersim.Microsecond, 100*clustersim.Microsecond, 1.03, 0.1)
	fixed := []experiments.Spec{
		experiments.FixedSpec("100", 100*clustersim.Microsecond),
		experiments.FixedSpec("10", 10*clustersim.Microsecond),
	}
	out, err := experiments.Fig9Case(env, w, *nodes, dyn, fixed, *width)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s on %d simulated nodes\n\n", w.Name, *nodes)
	fmt.Print(out.TrafficChart)
	fmt.Println()
	fmt.Printf("%-14s %20s %16s %18s\n", "quantum", "acceleration vs 1µs", "accuracy error", "sim. exec. ratio")
	for _, r := range out.Rows {
		fmt.Printf("%-14s %19.1fx %15.2f%% %17.2fx\n", r.Config, r.Speedup, r.AccErr*100, r.ExecRatio())
	}
	fmt.Printf("\nadaptive settled at mean quantum %v\n\n", out.Rows[0].Stats.MeanQ)
	fmt.Print(out.SpeedupCharts["dyn 1:100"])
}
