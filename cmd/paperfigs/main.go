// Command paperfigs regenerates every table and figure of the paper's
// evaluation (Figures 6–9 and the three Section 6 scale-out tables), plus
// the ablation sweeps listed in DESIGN.md.
//
//	paperfigs -fig all            # everything at full scale (about 5 s on 2 cores)
//	paperfigs -fig all -csv DIR   # and one CSV per table (what `make results` commits)
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
	"clustersim/internal/metrics"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

var (
	figFlag     = flag.String("fig", "all", "which artifact: "+strings.Join(figNames(), ", "))
	scaleFlag   = flag.Float64("scale", 1.0, "workload compute scale factor (0.25 for a quick look)")
	nodesFlag   = flag.Int("nodes", 64, "node count for the Figure 9 scale-out studies")
	widthFlag   = flag.Int("width", 100, "chart width in columns")
	csvFlag     = flag.String("csv", "", "also write every table as a CSV file into this directory")
	workersFlag = flag.Int("workers", 0, "concurrent simulations per experiment grid (0 = GOMAXPROCS, 1 = sequential); results are identical for any value")
	cpuProfFlag = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag = flag.String("memprofile", "", "write a heap profile to this file at exit")
	seedFlag    = flag.Uint64("fault-seed", 1, "seed for the fault-injection plans of the faults study")
	reportFlag  = flag.String("report", "", "write a sync-overhead attribution report document (one labelled run per simulation) here as JSON, plus .nodes.csv/.links.csv sidecars; inspect with simprof")
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

type (
	Env      = experiments.Env
	Cell     = experiments.Cell
	aggRow   = experiments.AggRow
	optRow   = experiments.OptimisticRow
	faultRow = experiments.FaultRow
	point    = metrics.Point
)

// study is one entry of the evaluation: a -fig name and the tables it makes.
type study struct {
	name string
	// group is a second -fig name that selects the study together with its
	// siblings (the three Figure 9 cases; Figure 8 with the two it replots).
	group string
	run   func(env Env) ([]table, error)
}

const us = simtime.Microsecond

var adaptive = experiments.DynSpec("dyn 1k 1.03:0.02", 1*us, 1000*us, 1.03, 0.02)

// The columns most tables share, over a measurement.
var (
	accErr  = colOf("accuracy error", "accuracy_error", 14, func(c Cell) cell { return pct(c.AccErr) })
	speedup = colOf("speedup", "speedup", 10, func(c Cell) cell { return times(c.Speedup, 1) })
	meanQ   = colOf("mean Q", "mean_q_us", 12, func(c Cell) cell { return dur(c.Stats.MeanQ) })
	nodes   = colOf("nodes", "nodes", -6, func(c Cell) cell { return count(c.Nodes) })
)

// config is the column naming a row's configuration.
func config(header string, width int) col[Cell] {
	return colOf(header, "config", width, func(c Cell) cell { return str(c.Config) })
}

// studies is the whole evaluation in print order: the -fig vocabulary, its
// help text and the dispatch loop all come from this table, and DESIGN.md §8
// is this table in prose.
var studies = []study{
	{"6", "8", aggregate("Figure 6 — NAS kernels (harmonic mean over EP,IS,CG,MG,LU)", "fig6_nas.csv", experiments.Fig6, &nasRows, kernels)},
	{"7", "8", aggregate("Figure 7 — NAMD", "fig7_namd.csv", experiments.Fig7, &namdRows, nil)},
	{"8", "", fig8},
	{"9a", "9", fig9(0)},
	{"9b", "9", fig9(1)},
	{"9c", "9", fig9(2)},
	{"ablation", "", of(
		table{title: "Ablation A1 — Algorithm 1 inc/dec sensitivity (NAS-IS, 8 nodes)", file: "ablation_incdec.csv"},
		func(env Env) ([]Cell, error) {
			return experiments.AblationIncDec(env, experiments.NASSuite(*scaleFlag)[1], 8,
				[]float64{1.01, 1.03, 1.05, 1.10, 1.20}, []float64{0.02, 0.1, 0.5, 0.9})
		},
		config("inc:dec", -14), accErr, speedup, meanQ)},
	{"host", "", of(
		table{title: "Ablation A3 — host-model sensitivity (NAS-EP, 8 nodes, speedup of Q=1000µs)", file: "ablation_host.csv"},
		func(env Env) ([]Cell, error) {
			return experiments.AblationHost(env, experiments.NASSuite(*scaleFlag)[0], 8,
				[]simtime.Duration{100 * us, 400 * us, 1300 * us, 4000 * us}, []float64{0, 0.22, 0.5})
		},
		config("host", -28), colOf("Q=1000µs speedup", "speedup_1k", 14, speedup.of))},
	{"oracle", "", of(
		table{title: "Ablation A4 — Algorithm 1 vs perfect-lookahead oracle (NAMD, 8 nodes)", file: "ablation_oracle.csv",
			note: "  (the oracle knows every future send — unobtainable in practice, per §3)\n"},
		func(env Env) ([]Cell, error) {
			return experiments.AblationOracle(env, experiments.NAMDWorkload(*scaleFlag), 8, 1*us, 1000*us)
		},
		config("policy", -16), accErr, speedup, meanQ)},
	{"optimistic", "", of(
		table{title: "Analysis A6 — conservative quanta vs optimistic checkpoint/rollback (§3)", file: "optimistic.csv",
			note: "  (ratio > 1: the paper's choice of conservative synchronization wins)\n"},
		func(env Env) ([]optRow, error) {
			return experiments.OptimisticEstimate(env, experiments.NASSuite(*scaleFlag)[1], 8,
				experiments.StandardSpecs()[:3], experiments.PaperOptimistic()) // the three fixed quanta
		},
		colOf("quantum", "config", -8, func(r optRow) cell { return str(r.Config) }),
		colOf("quantum host", "quantum_host_us", 14, func(r optRow) cell { return dur(r.QuantumHost) }),
		colOf("stragglers", "stragglers", 12, func(r optRow) cell { return count(r.Stragglers) }),
		colOf("optimistic host", "optimistic_host_us", 18, func(r optRow) cell { return dur(r.OptimisticHost) }),
		colOf("ratio", "ratio", 10, func(r optRow) cell { return times(r.Ratio, 0) }))},
	{"sampling", "", sampling},
	// The two NAS kernels the paper had to leave out (§4: only benchmarks
	// that "could run for 2, 4 and 8-node clusters" were selected), on the
	// node counts their decompositions allow.
	{"extras", "", of(
		table{title: "Extension — NAS FT and BT (kernels the paper could not run)", file: "extras_nas.csv"},
		func(env Env) ([]Cell, error) {
			var cells []Cell
			for _, k := range []struct {
				name  string
				nodes []int
			}{{"nas.ft", []int{2, 4, 8}}, {"nas.bt", []int{4, 16}}} {
				w, err := experiments.ResolveWorkload(k.name, *scaleFlag)
				if err != nil {
					return nil, err
				}
				grid, err := experiments.Grid(env, []workloads.Workload{w}, k.nodes, experiments.StandardSpecs())
				if err != nil {
					return nil, err
				}
				cells = append(cells, grid...)
			}
			return cells, nil
		},
		colOf("kernel", "kernel", -8, func(c Cell) cell { return str(c.Workload) }),
		nodes, config("config", -20), accErr, speedup)},
	// The paper's closing observation as a measured curve.
	{"scaling", "", of(
		table{title: "Study A8 — adaptive effectiveness vs cluster size (NAMD, dyn 1k 1.03:0.02)", file: "scaling_namd.csv",
			note: "  (traffic density grows with scale, pinning the quantum and eroding the speedup)\n"},
		func(env Env) ([]Cell, error) {
			return experiments.Grid(env, []workloads.Workload{experiments.NAMDWorkload(*scaleFlag)},
				[]int{2, 4, 8, 16, 32, 64}, []experiments.Spec{adaptive})
		},
		nodes, accErr, speedup, meanQ,
		colOf("packets/guest-ms", "packets_per_guest_ms", 16, func(c Cell) cell { return num(c.PacketsPerGuestMS(), 0) }))},
	// Adaptive and fixed quanta on a degrading network: a reliable-transport
	// workload under deterministic loss injection sweeping 0% → 5%.
	// Retransmission timers under loss add traffic that holds the adaptive
	// quantum down, while a fixed quantum just accumulates stragglers.
	{"faults", "", of(
		table{title: "Study A9 — adaptive vs fixed quanta under frame loss (reliable transport, 8 nodes)", file: "faults_sweep.csv",
			note: "\n  (every decision is a pure function of the fault seed — rerun with the same\n" +
				"  -fault-seed to replay a sweep bit-identically)\n"},
		func(env Env) ([]faultRow, error) {
			w := workloads.ReliablePhases(4, simtime.Duration(float64(300*us)**scaleFlag), 64<<10)
			specs := []experiments.Spec{experiments.FixedSpec("100", 100*us), experiments.FixedSpec("1k", 1000*us), adaptive}
			return experiments.FaultSweep(env, w, 8, specs, []float64{0, 0.5, 1, 2, 3, 5}, *seedFlag)
		},
		colOf("loss", "loss_pct", -8, func(r faultRow) cell {
			return cell{fmt.Sprintf("%-7s%%", strconv.FormatFloat(r.LossPct, 'g', 3, 64)), f64(r.LossPct)}
		}).grouped(),
		colOf("config", "config", -20, func(r faultRow) cell { return str(r.Config) }),
		colOf("mean Q", "mean_q_us", 12, func(r faultRow) cell { return dur(r.MeanQ) }),
		colOf("stragglers/del", "straggler_rate", 16, func(r faultRow) cell { return num(r.StragglerRate, 3) }),
		colOf("drops", "dropped", 8, func(r faultRow) cell { return count(r.Dropped) }),
		colOf("", "duplicated", 0, func(r faultRow) cell { return count(r.Duplicated) }),
		colOf("retransmits", "retransmits", 12, func(r faultRow) cell { return count(r.Retransmits) }),
		colOf("timeouts", "timeouts", 10, func(r faultRow) cell { return count(r.Timeouts) }))},
}

// figNames lists every value -fig accepts.
func figNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range studies {
		for _, n := range []string{s.name, s.group} {
			if n != "" && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return append(names, "all")
}

func run() (err error) {
	which := strings.ToLower(*figFlag)
	// A typoed -fig would select no study and exit 0 having printed nothing,
	// which reads like a hang or an empty study. Reject it (and nonsense
	// scale factors) up front with the valid vocabulary, before the
	// cache-stats and report-writer defers attach.
	var selected []study
	for _, s := range studies {
		if which == "all" || which == s.name || which == s.group {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -fig %q (want %s)", *figFlag, strings.Join(figNames(), ", "))
	}
	if _, err := experiments.ResolveWorkload("namd", *scaleFlag); err != nil {
		return fmt.Errorf("-%w", err)
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
			if werr := env.Profiles.Report().WriteFiles(*reportFlag); werr != nil {
				if err == nil {
					err = werr
				}
				return
			}
			fmt.Fprintf(os.Stderr, "paperfigs: profile sweep written to %s\n", *reportFlag)
		}()
	}
	for _, s := range selected {
		tables, err := s.run(env)
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.writeText(os.Stdout)
			if *csvFlag != "" {
				if err := t.writeCSV(*csvFlag); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// of is the common shape of a study: one table, one row per measurement.
func of[T any](t table, rows func(Env) ([]T, error), cols ...col[T]) func(Env) ([]table, error) {
	return func(env Env) ([]table, error) {
		r, err := rows(env)
		if err != nil {
			return nil, err
		}
		return []table{tabulate(t, r, cols...)}, nil
	}
}

// nasRows and namdRows are what Figures 6 and 7 measured, kept for Figure 8,
// which replots them: its -fig group runs the two before it.
var nasRows, namdRows []aggRow

// aggregate is Figure 6 or 7: a suite-level sweep printed as one block per
// node count, followed by what detail makes of the cells it folds, if any.
func aggregate(title, file string, fig func(Env, float64, []int) ([]aggRow, []Cell, error), keep *[]aggRow, detail func([]Cell) table) func(Env) ([]table, error) {
	return func(env Env) ([]table, error) {
		rows, cells, err := fig(env, *scaleFlag, nil)
		*keep = rows
		if err != nil {
			return nil, err
		}
		tables := []table{tabulate(table{title: title, file: file}, rows,
			colOf("config", "config", -22, func(r aggRow) cell { return str(r.Config) }),
			colOf("", "nodes", 0, func(r aggRow) cell {
				return cell{fmt.Sprintf("%d processors", r.Nodes), strconv.Itoa(r.Nodes)}
			}).grouped(),
			col[aggRow]{accErr.column, func(r aggRow) cell { return pct(r.AccErr) }},
			col[aggRow]{speedup.column, func(r aggRow) cell { return times(r.Speedup, 1) }})}
		if detail != nil {
			tables = append(tables, detail(cells))
		}
		return tables, nil
	}
}

// kernels is Figure 6's 8-node column kernel by kernel, before the harmonic
// mean folds it.
func kernels(cells []Cell) table {
	var at8 []Cell
	for _, c := range cells {
		if c.Nodes == 8 {
			at8 = append(at8, c)
		}
	}
	return tabulate(table{title: "Figure 6 by kernel — NAS kernels on 8 nodes", file: "fig6_nas_kernels.csv"}, at8,
		colOf("kernel", "kernel", -8, func(c Cell) cell { return str(c.Workload) }).grouped(),
		config("config", -20),
		colOf("MOPS", "mops", 10, func(c Cell) cell { return num(c.Metric, 0) }),
		accErr, speedup,
		colOf("stragglers", "stragglers", 12, func(c Cell) cell { return count(c.Stats.Stragglers) }))
}

func fig8(Env) ([]table, error) {
	out := experiments.Fig8(nasRows, namdRows, 8)
	onFront := func(p point) bool { return metrics.OnFront(p, out.Points) }
	return []table{tabulate(
		table{title: "Figure 8 — Pareto optimality (8 nodes)", file: "fig8_pareto.csv",
			note: "\n" + trace.ParetoChart(out.Points, *widthFlag-20, 14)},
		out.Points,
		colOf("point", "point", -28, func(p point) cell { return str(p.Name) }),
		col[point]{accErr.column, func(p point) cell { return pct(p.Err) }},
		col[point]{speedup.column, func(p point) cell { return times(p.Speedup, 1) }},
		colOf("pareto", "", 0, func(p point) cell {
			if onFront(p) {
				return cell{text: "◆ on front"}
			} else if d, ok := out.NearFront[p.Name]; ok {
				return cell{text: fmt.Sprintf("near front (distance %.3f)", d)}
			}
			return cell{}
		}),
		colOf("", "on_front", 0, func(p point) cell { return cell{csv: strconv.FormatBool(onFront(p))} }),
		colOf("", "front_distance", 0, func(p point) cell {
			if d, ok := out.NearFront[p.Name]; ok {
				return cell{csv: f64(d)}
			}
			return cell{}
		}),
	)}, nil
}

// fig9 is the i-th Section 6 scale-out case study: the ground truth's
// traffic chart, the table, and every configuration's speedup over time.
func fig9(i int) func(Env) ([]table, error) {
	return func(env Env) ([]table, error) {
		cs := experiments.Fig9Cases(*scaleFlag)[i]
		out, err := experiments.Fig9Case(env, cs.Workload, *nodesFlag, cs.Dyn, cs.Fixed, *widthFlag)
		if err != nil {
			return nil, err
		}
		t := table{
			title: fmt.Sprintf("Figure 9 / Section 6 — %s at %d nodes", out.Benchmark, out.Nodes),
			file:  "fig9_" + strings.ReplaceAll(out.Benchmark, ".", "_") + ".csv",
			lead:  "\n" + out.TrafficChart + "\n",
			note:  fmt.Sprintf("\n  adaptive run settled at mean quantum %v\n\n", out.Rows[0].Stats.MeanQ),
		}
		var labels []string
		for l := range out.SpeedupCharts {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			t.note += out.SpeedupCharts[l] + "\n"
		}
		return []table{tabulate(t, out.Rows,
			config("quantum", -24),
			colOf("acceleration vs 1µs", "acceleration", 18, speedup.of),
			colOf("accuracy error", "accuracy_error", 16, accErr.of),
			colOf("sim. exec ratio", "exec_ratio", 16, func(c Cell) cell { return times(c.ExecRatio(), 2) }),
		)}, nil
	}
}

// sampling is the §7 future-work study on a compute-bound and a
// traffic-bound workload, one table each under a common title.
func sampling(env Env) ([]table, error) {
	tables := []table{
		{title: "Study A7 — combining adaptive quanta with node sampling (§7 future work; 8 nodes)", file: "sampling_nas_ep.csv"},
		{file: "sampling_namd.csv", note: "\n  (speedups versus the unsampled Q=1µs ground truth. Sampling alone is useless\n" +
			"  — at Q=1µs the barrier dominates — but multiplies once the adaptive quantum\n" +
			"  has removed the synchronization overhead, confirming the paper's §7 intuition.)\n"},
	}
	for i, w := range []struct {
		name string
		wl   workloads.Workload
	}{
		{"NAS-EP (compute-bound)", experiments.NASSuite(*scaleFlag)[0]},
		{"NAMD (traffic-bound)", experiments.NAMDWorkload(*scaleFlag)},
	} {
		cells, err := experiments.SamplingStudy(env, w.wl, 8, experiments.DefaultSampling())
		if err != nil {
			return nil, err
		}
		tables[i] = tabulate(tables[i], cells,
			colOf("", "workload", 0, func(c Cell) cell { return cell{w.name, c.Workload} }).grouped(),
			config("config", -22), accErr, speedup)
	}
	return tables, nil
}
