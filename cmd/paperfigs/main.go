// Command paperfigs regenerates every table and figure of the paper's
// evaluation (Figures 6–9 and the three Section 6 scale-out tables), plus
// the ablation sweeps listed in DESIGN.md.
//
//	paperfigs -fig all            # everything at full scale (minutes)
//	paperfigs -fig 6 -scale 0.25  # a quick quarter-scale Figure 6
//	paperfigs -fig 9a -nodes 64   # the EP scale-out case study
//
// Absolute numbers depend on the calibrated host model (see EXPERIMENTS.md);
// the paper-validated properties are the orderings and crossovers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"clustersim/internal/experiments"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

// workloadsAlias keeps the sampling table loop tidy.
type workloadsAlias = workloads.Workload

var (
	figFlag     = flag.String("fig", "all", "which artifact: 6, 7, 8, 9, 9a, 9b, 9c, ablation, host, oracle, optimistic, sampling, extras, scaling, faults, all")
	scaleFlag   = flag.Float64("scale", 1.0, "workload compute scale factor (0.25 for a quick look)")
	nodesFlag   = flag.Int("nodes", 64, "node count for the Figure 9 scale-out studies")
	widthFlag   = flag.Int("width", 100, "chart width in columns")
	csvFlag     = flag.String("csv", "", "also write machine-readable CSVs into this directory")
	workersFlag = flag.Int("workers", 0, "concurrent simulations per experiment grid (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile to this file at exit")
	seedFlag    = flag.Uint64("fault-seed", 1, "seed for the fault-injection plans of the faults study")
	reportFlag  = flag.String("report", "", "write a sync-overhead attribution sweep (one labelled report per run) here as JSON, plus a .links.csv sidecar; inspect with simprof")
)

func main() {
	flag.Parse()
	if err := withProfiles(*cpuProfFlag, *memProfFlag, run); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// withProfiles brackets f with the optional pprof captures: CPU samples over
// f's whole run, and a post-GC heap snapshot at exit.
func withProfiles(cpu, mem string, f func() error) error {
	if cpu != "" {
		pf, err := os.Create(cpu)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := f()
	if mem != "" {
		mf, merr := os.Create(mem)
		if merr != nil {
			if err == nil {
				err = merr
			}
			return err
		}
		defer mf.Close()
		runtime.GC()
		if perr := pprof.WriteHeapProfile(mf); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

func run() error {
	which := strings.ToLower(*figFlag)
	// A typoed -fig used to match none of the dispatch arms and exit 0 having
	// printed nothing, which reads like a hang or an empty study. Reject it
	// (and nonsense scale factors) up front with the valid vocabulary, before
	// the cache-stats and report-writer defers attach.
	switch which {
	case "6", "7", "8", "9", "9a", "9b", "9c", "ablation", "host", "oracle",
		"optimistic", "sampling", "extras", "scaling", "faults", "all":
	default:
		return fmt.Errorf("unknown -fig %q (want 6, 7, 8, 9, 9a, 9b, 9c, ablation, host, oracle, optimistic, sampling, extras, scaling, faults, or all)", *figFlag)
	}
	if *scaleFlag <= 0 {
		return fmt.Errorf("-scale must be positive, got %v", *scaleFlag)
	}
	if *nodesFlag < 1 {
		return fmt.Errorf("-nodes must be >= 1, got %d", *nodesFlag)
	}
	env := experiments.DefaultEnv()
	env.Workers = *workersFlag
	env.Baselines = experiments.NewBaselineCache()
	defer func() {
		st := env.Baselines.Stats()
		fmt.Fprintf(os.Stderr, "paperfigs: baseline cache: %d baselines simulated, %d reused, %d trace upgrades\n",
			st.Misses, st.Hits, st.Upgrades)
	}()
	if *reportFlag != "" {
		env.Profiles = &prof.Sweep{}
		defer func() {
			if err := env.Profiles.Report().WriteFiles(*reportFlag); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: writing %s: %v\n", *reportFlag, err)
				return
			}
			fmt.Fprintf(os.Stderr, "paperfigs: profile sweep written to %s\n", *reportFlag)
		}()
	}
	all := which == "all"

	var nasRows, namdRows []experiments.AggRow

	if all || which == "6" || which == "8" {
		rows, _, err := experiments.Fig6(env, *scaleFlag, nil)
		if err != nil {
			return err
		}
		nasRows = rows
		printAgg("Figure 6 — NAS kernels (harmonic mean over EP,IS,CG,MG,LU)", rows)
		if *csvFlag != "" {
			if err := writeCSV(*csvFlag, "fig6_nas.csv", aggCSV(rows)); err != nil {
				return err
			}
		}
	}
	if all || which == "7" || which == "8" {
		rows, _, err := experiments.Fig7(env, *scaleFlag, nil)
		if err != nil {
			return err
		}
		namdRows = rows
		printAgg("Figure 7 — NAMD", rows)
		if *csvFlag != "" {
			if err := writeCSV(*csvFlag, "fig7_namd.csv", aggCSV(rows)); err != nil {
				return err
			}
		}
	}
	if all || which == "8" {
		out := experiments.Fig8(nasRows, namdRows, 8)
		printFig8(out)
		if *csvFlag != "" {
			if err := writeCSV(*csvFlag, "fig8_pareto.csv", fig8CSV(out)); err != nil {
				return err
			}
		}
	}
	if all || which == "9" || which == "9a" || which == "9b" || which == "9c" {
		outs, err := fig9Selection(env, which)
		if err != nil {
			return err
		}
		for _, out := range outs {
			printScaleOut(out)
			if *csvFlag != "" {
				name := fmt.Sprintf("fig9_%s.csv", strings.ReplaceAll(out.Benchmark, ".", "_"))
				if err := writeCSV(*csvFlag, name, scaleOutCSV(out)); err != nil {
					return err
				}
			}
		}
	}
	if all || which == "ablation" {
		if err := printIncDecAblation(env); err != nil {
			return err
		}
	}
	if all || which == "host" {
		if err := printHostAblation(env); err != nil {
			return err
		}
	}
	if all || which == "oracle" {
		if err := printOracleAblation(env); err != nil {
			return err
		}
	}
	if all || which == "optimistic" {
		if err := printOptimistic(env); err != nil {
			return err
		}
	}
	if all || which == "sampling" {
		if err := printSampling(env); err != nil {
			return err
		}
	}
	if all || which == "extras" {
		if err := printExtras(env); err != nil {
			return err
		}
	}
	if all || which == "scaling" {
		if err := printScaling(env); err != nil {
			return err
		}
	}
	if all || which == "faults" {
		if err := printFaultSweep(env); err != nil {
			return err
		}
	}
	return nil
}

// printFaultSweep compares adaptive and fixed quanta on a degrading network:
// a reliable-transport workload under deterministic loss injection sweeping
// 0% → 5%. Retransmission timers under loss add traffic that holds the
// adaptive quantum down, while a fixed quantum just accumulates stragglers.
func printFaultSweep(env experiments.Env) error {
	title := "Study A9 — adaptive vs fixed quanta under frame loss (reliable transport, 8 nodes)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	w := workloads.ReliablePhases(4, simtime.Duration(float64(300*simtime.Microsecond)**scaleFlag), 64<<10)
	specs := []experiments.Spec{
		experiments.FixedSpec("100", 100*simtime.Microsecond),
		experiments.FixedSpec("1k", 1000*simtime.Microsecond),
		experiments.DynSpec("dyn 1k 1.03:0.02", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02),
	}
	rows, err := experiments.FaultSweep(env, w, 8, specs, []float64{0, 0.5, 1, 2, 3, 5}, *seedFlag)
	if err != nil {
		return err
	}
	if *csvFlag != "" {
		if err := writeCSV(*csvFlag, "faults_sweep.csv", faultCSV(rows)); err != nil {
			return err
		}
	}
	fmt.Printf("  %-8s %-20s %12s %16s %8s %12s %10s\n",
		"loss", "config", "mean Q", "stragglers/del", "drops", "retransmits", "timeouts")
	last := -1.0
	for _, r := range rows {
		if r.LossPct != last {
			last = r.LossPct
			fmt.Println()
		}
		fmt.Printf("  %-7s%% %-20s %12v %16.3f %8d %12d %10d\n",
			strconv.FormatFloat(r.LossPct, 'g', 3, 64), r.Config, r.MeanQ,
			r.StragglerRate, r.Dropped, r.Retransmits, r.Timeouts)
	}
	fmt.Println("\n  (every decision is a pure function of the fault seed — rerun with the same")
	fmt.Println("  -fault-seed to replay a sweep bit-identically)")
	return nil
}

// printScaling extends the paper's closing observation into a measured
// curve: adaptive effectiveness versus cluster size.
func printScaling(env experiments.Env) error {
	title := "Study A8 — adaptive effectiveness vs cluster size (NAMD, dyn 1k 1.03:0.02)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	rows, err := experiments.ScalingCurve(env, experiments.NAMDWorkload(*scaleFlag),
		[]int{2, 4, 8, 16, 32, 64},
		experiments.DynSpec("dyn 1k 1.03:0.02", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02))
	if err != nil {
		return err
	}
	fmt.Printf("  %-6s %14s %10s %12s %16s\n", "nodes", "accuracy error", "speedup", "mean Q", "packets/guest-ms")
	for _, r := range rows {
		fmt.Printf("  %-6d %13.2f%% %9.1fx %12v %16.0f\n", r.Nodes, r.AccErr*100, r.Speedup, r.MeanQ, r.PacketsPerGuestMS)
	}
	fmt.Println("  (traffic density grows with scale, pinning the quantum and eroding the speedup)")
	return nil
}

// printExtras evaluates the two NAS kernels the paper had to leave out
// (§4: only benchmarks that "could run for 2, 4 and 8-node clusters" were
// selected) under the standard configurations, on the node counts their
// decompositions allow.
func printExtras(env experiments.Env) error {
	title := "Extension — NAS FT and BT (kernels the paper could not run)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))

	ft := workloads.DefaultFT()
	ft.SerialComputePerIter = ft.SerialComputePerIter.Scale(*scaleFlag)
	bt := workloads.DefaultBT()
	bt.SerialComputePerStep = bt.SerialComputePerStep.Scale(*scaleFlag)

	ftCells, err := experiments.Grid(env, []workloads.Workload{workloads.FT(ft)}, []int{2, 4, 8}, experiments.StandardSpecs())
	if err != nil {
		return err
	}
	btCells, err := experiments.Grid(env, []workloads.Workload{workloads.BT(bt)}, []int{4, 16}, experiments.StandardSpecs())
	if err != nil {
		return err
	}
	fmt.Printf("  %-8s %-6s %-20s %14s %10s\n", "kernel", "nodes", "config", "accuracy error", "speedup")
	for _, c := range append(ftCells, btCells...) {
		fmt.Printf("  %-8s %-6d %-20s %13.2f%% %9.1fx\n", c.Workload, c.Nodes, c.Config, c.AccErr*100, c.Speedup)
	}
	return nil
}

func printSampling(env experiments.Env) error {
	title := "Study A7 — combining adaptive quanta with node sampling (§7 future work; 8 nodes)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	for _, w := range []struct {
		name string
		wl   workloadsAlias
	}{
		{"NAS-EP (compute-bound)", experiments.NASSuite(*scaleFlag)[0]},
		{"NAMD (traffic-bound)", experiments.NAMDWorkload(*scaleFlag)},
	} {
		rows, err := experiments.SamplingStudy(env, w.wl, 8, experiments.DefaultSampling())
		if err != nil {
			return err
		}
		fmt.Printf("\n  %s:\n", w.name)
		fmt.Printf("  %-22s %14s %10s\n", "config", "accuracy error", "speedup")
		for _, r := range rows {
			fmt.Printf("  %-22s %13.2f%% %9.1fx\n", r.Label, r.AccErr*100, r.Speedup)
		}
	}
	fmt.Println("\n  (speedups versus the unsampled Q=1µs ground truth. Sampling alone is useless")
	fmt.Println("  — at Q=1µs the barrier dominates — but multiplies once the adaptive quantum")
	fmt.Println("  has removed the synchronization overhead, confirming the paper's §7 intuition.)")
	return nil
}

func printOracleAblation(env experiments.Env) error {
	title := "Ablation A4 — Algorithm 1 vs perfect-lookahead oracle (NAMD, 8 nodes)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	rows, err := experiments.AblationOracle(env, experiments.NAMDWorkload(*scaleFlag), 8,
		1*simtime.Microsecond, 1000*simtime.Microsecond)
	if err != nil {
		return err
	}
	fmt.Printf("  %-16s %14s %10s %12s\n", "policy", "accuracy error", "speedup", "mean Q")
	for _, r := range rows {
		fmt.Printf("  %-16s %13.2f%% %9.1fx %12v\n", r.Label, r.AccErr*100, r.Speedup, r.MeanQ)
	}
	fmt.Println("  (the oracle knows every future send — unobtainable in practice, per §3)")
	return nil
}

func printOptimistic(env experiments.Env) error {
	title := "Analysis A6 — conservative quanta vs optimistic checkpoint/rollback (§3)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	rows, err := experiments.OptimisticEstimate(env, experiments.NASSuite(*scaleFlag)[1], 8,
		[]experiments.Spec{
			experiments.FixedSpec("10", 10*simtime.Microsecond),
			experiments.FixedSpec("100", 100*simtime.Microsecond),
			experiments.FixedSpec("1k", 1000*simtime.Microsecond),
		}, experiments.PaperOptimistic())
	if err != nil {
		return err
	}
	fmt.Printf("  %-8s %14s %12s %18s %10s\n", "quantum", "quantum host", "stragglers", "optimistic host", "ratio")
	for _, r := range rows {
		fmt.Printf("  %-8s %14v %12d %18v %9.0fx\n",
			r.Config, r.QuantumHost, r.Stragglers, r.OptimisticHost, r.Ratio)
	}
	fmt.Println("  (ratio > 1: the paper's choice of conservative synchronization wins)")
	return nil
}

func fig9Selection(env experiments.Env, which string) ([]*experiments.ScaleOut, error) {
	outs, err := experiments.Fig9(env, *scaleFlag, *nodesFlag, *widthFlag)
	if err != nil {
		return nil, err
	}
	switch which {
	case "9a":
		return outs[:1], nil
	case "9b":
		return outs[1:2], nil
	case "9c":
		return outs[2:], nil
	default:
		return outs, nil
	}
}

func printAgg(title string, rows []experiments.AggRow) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Nodes < rows[j].Nodes })
	nodes := -1
	for _, r := range rows {
		if r.Nodes != nodes {
			nodes = r.Nodes
			fmt.Printf("\n  %d processors:\n", nodes)
			fmt.Printf("  %-22s %14s %10s\n", "config", "accuracy error", "speedup")
		}
		fmt.Printf("  %-22s %13.2f%% %9.1fx\n", r.Config, r.AccErr*100, r.Speedup)
	}
}

func printFig8(out experiments.Fig8Out) {
	title := "Figure 8 — Pareto optimality (8 nodes)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	onFront := map[string]bool{}
	for _, p := range out.Front {
		onFront[p.Name] = true
	}
	sorted := out.Points
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Err < sorted[j].Err })
	fmt.Printf("  %-28s %14s %10s %s\n", "point", "accuracy error", "speedup", "pareto")
	for _, p := range sorted {
		mark := ""
		if onFront[p.Name] {
			mark = "◆ on front"
		} else if d, ok := out.NearFront[p.Name]; ok {
			mark = fmt.Sprintf("near front (distance %.3f)", d)
		}
		fmt.Printf("  %-28s %13.2f%% %9.1fx %s\n", p.Name, p.Err*100, p.Speedup, mark)
	}
	fmt.Println()
	fmt.Print(trace.ParetoChart(sorted, *widthFlag-20, 14))
}

func printScaleOut(out *experiments.ScaleOut) {
	title := fmt.Sprintf("Figure 9 / Section 6 — %s at %d nodes", out.Benchmark, out.Nodes)
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	fmt.Println()
	fmt.Print(out.TrafficChart)
	fmt.Println()
	fmt.Printf("  %-24s %18s %16s %16s\n", "quantum", "acceleration vs 1µs", "accuracy error", "sim. exec ratio")
	for _, r := range out.Rows {
		fmt.Printf("  %-24s %17.1fx %15.2f%% %15.2fx\n", r.Config, r.Accel, r.AccErr*100, r.ExecRatio)
	}
	fmt.Printf("\n  adaptive run settled at mean quantum %v\n\n", out.AdaptiveMeanQ)
	var labels []string
	for l := range out.SpeedupCharts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Print(out.SpeedupCharts[l])
		fmt.Println()
	}
}

func printIncDecAblation(env experiments.Env) error {
	title := "Ablation A1 — Algorithm 1 inc/dec sensitivity (NAS-IS, 8 nodes)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	rows, err := experiments.AblationIncDec(env, experiments.NASSuite(*scaleFlag)[1], 8,
		[]float64{1.01, 1.03, 1.05, 1.10, 1.20},
		[]float64{0.02, 0.1, 0.5, 0.9})
	if err != nil {
		return err
	}
	if *csvFlag != "" {
		if err := writeCSV(*csvFlag, "ablation_incdec.csv", ablationCSV(rows)); err != nil {
			return err
		}
	}
	fmt.Printf("  %-14s %14s %10s %12s\n", "inc:dec", "accuracy error", "speedup", "mean Q")
	for _, r := range rows {
		fmt.Printf("  %-14s %13.2f%% %9.1fx %12v\n", r.Label, r.AccErr*100, r.Speedup, r.MeanQ)
	}
	return nil
}

func printHostAblation(env experiments.Env) error {
	title := "Ablation A3 — host-model sensitivity (NAS-EP, 8 nodes, speedup of Q=1000µs)"
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
	rows, err := experiments.AblationHost(env, experiments.NASSuite(*scaleFlag)[0], 8,
		[]simtime.Duration{100 * simtime.Microsecond, 400 * simtime.Microsecond, 1300 * simtime.Microsecond, 4 * simtime.Millisecond},
		[]float64{0, 0.22, 0.5})
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].BarrierCost != rows[j].BarrierCost {
			return rows[i].BarrierCost < rows[j].BarrierCost
		}
		return rows[i].Jitter < rows[j].Jitter
	})
	fmt.Printf("  %-28s %14s\n", "host", "Q=1000µs speedup")
	for _, r := range rows {
		fmt.Printf("  %-28s %13.1fx\n", r.Label, r.Speedup1k)
	}
	return nil
}
