// Macro-benchmarks: one per table and figure of the paper's evaluation.
// Each benchmark regenerates its artifact and reports the headline numbers
// as custom metrics (accuracy error in %, speedup in x), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The workloads run at a reduced scale to
// keep benchmark time reasonable; `go run ./cmd/paperfigs` regenerates the
// full-scale artifacts (see EXPERIMENTS.md for the recorded full-scale
// numbers).
package clustersim_test

import (
	"testing"

	"clustersim"
	"clustersim/internal/experiments"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

const benchScale = 0.1

func findAgg(rows []experiments.AggRow, nodes int, config string) experiments.AggRow {
	for _, r := range rows {
		if r.Nodes == nodes && r.Config == config {
			return r
		}
	}
	return experiments.AggRow{}
}

// BenchmarkFig6NAS regenerates Figure 6: the five NAS kernels at 2/4/8 nodes
// under fixed 10µs/100µs/1000µs and the two adaptive configurations.
func BenchmarkFig6NAS(b *testing.B) {
	env := experiments.DefaultEnv()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig6(env, benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		dyn := findAgg(rows, 8, "dyn 1k 1.03:0.02")
		fix := findAgg(rows, 8, "1k")
		b.ReportMetric(dyn.AccErr*100, "dyn8_err_%")
		b.ReportMetric(dyn.Speedup, "dyn8_speedup_x")
		b.ReportMetric(fix.AccErr*100, "fix1k8_err_%")
		b.ReportMetric(fix.Speedup, "fix1k8_speedup_x")
	}
}

// BenchmarkFig6Workers measures the experiment fan-out: the same reduced
// Figure 6 grid run fully sequentially versus with the worker pool sized to
// the host (Env.Workers = 0 → GOMAXPROCS). The grid's simulations are
// independent and deterministic, so the speedup is pure parallel efficiency —
// on an N-core host the pool run should approach N× (identical output either
// way; TestFig6WorkerCountInvariance pins that).
func BenchmarkFig6Workers(b *testing.B) {
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			env := experiments.DefaultEnv()
			env.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, _, err := experiments.Fig6(env, benchScale, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("seq", run(1))
	b.Run("pool", run(0))
}

// BenchmarkFig7NAMD regenerates Figure 7: NAMD at 2/4/8 nodes.
func BenchmarkFig7NAMD(b *testing.B) {
	env := experiments.DefaultEnv()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Fig7(env, benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
		dyn := findAgg(rows, 8, "dyn 1k 1.03:0.02")
		fix := findAgg(rows, 8, "1k")
		b.ReportMetric(dyn.AccErr*100, "dyn8_err_%")
		b.ReportMetric(dyn.Speedup, "dyn8_speedup_x")
		b.ReportMetric(fix.AccErr*100, "fix1k8_err_%")
	}
}

// BenchmarkFig8Pareto regenerates Figure 8: the 8-node Pareto plane, and
// reports how far the adaptive configurations sit from the optimal front
// (0 = on the front, the paper's claim).
func BenchmarkFig8Pareto(b *testing.B) {
	env := experiments.DefaultEnv()
	for i := 0; i < b.N; i++ {
		nas, _, err := experiments.Fig6(env, benchScale, []int{8})
		if err != nil {
			b.Fatal(err)
		}
		namd, _, err := experiments.Fig7(env, benchScale, []int{8})
		if err != nil {
			b.Fatal(err)
		}
		out := experiments.Fig8(nas, namd, 8)
		worst := 0.0
		for _, d := range out.NearFront {
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "max_front_distance")
		b.ReportMetric(float64(len(out.Front)), "front_points")
	}
}

// benchFig9 regenerates the i-th Section 6 case study at 32 nodes.
func benchFig9(b *testing.B, i int) {
	env := experiments.DefaultEnv()
	c := experiments.Fig9Cases(0.5)[i]
	for n := 0; n < b.N; n++ {
		out, err := experiments.Fig9Case(env, c.Workload, 32, c.Dyn, c.Fixed, 60)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range out.Rows {
			switch r.Config {
			case "100":
				b.ReportMetric(r.Speedup, "q100_accel_x")
				b.ReportMetric(r.AccErr*100, "q100_err_%")
				b.ReportMetric(r.ExecRatio(), "q100_exec_ratio_x")
			case "10":
				b.ReportMetric(r.Speedup, "q10_accel_x")
			default:
				b.ReportMetric(r.Speedup, "dyn_accel_x")
				b.ReportMetric(r.AccErr*100, "dyn_err_%")
			}
		}
	}
}

// BenchmarkFig9EP regenerates the Section 6 EP scale-out table (Figure 9a).
func BenchmarkFig9EP(b *testing.B) { benchFig9(b, 0) }

// BenchmarkFig9IS regenerates the Section 6 IS scale-out table (Figure 9b):
// the simulated-execution-ratio pathology.
func BenchmarkFig9IS(b *testing.B) { benchFig9(b, 1) }

// BenchmarkFig9NAMD regenerates the Section 6 NAMD scale-out table (Figure
// 9c): continuous traffic capping the adaptive speedup near the best fixed
// quantum.
func BenchmarkFig9NAMD(b *testing.B) { benchFig9(b, 2) }

// BenchmarkAblationIncDec regenerates the inc/dec sensitivity sweep (DESIGN
// A1), validating the paper's "grow slowly, shrink fast" guidance.
func BenchmarkAblationIncDec(b *testing.B) {
	env := experiments.DefaultEnv()
	w := experiments.NASSuite(benchScale)[1] // IS
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationIncDec(env, w, 4,
			[]float64{1.03, 1.20}, []float64{0.02, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "1.03:0.02" {
				b.ReportMetric(r.AccErr*100, "paper_schedule_err_%")
			}
			if r.Config == "1.2:0.9" {
				b.ReportMetric(r.AccErr*100, "greedy_schedule_err_%")
			}
		}
	}
}

// BenchmarkAblationHost regenerates the host-sensitivity sweep (DESIGN A3).
func BenchmarkAblationHost(b *testing.B) {
	env := experiments.DefaultEnv()
	w := experiments.NASSuite(benchScale)[0] // EP
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHost(env, w, 4,
			[]simtime.Duration{400 * simtime.Microsecond, 1300 * simtime.Microsecond},
			[]float64{0, 0.22})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Config == "barrier=1.3ms σ=0.22" {
				b.ReportMetric(r.Speedup, "default_host_speedup1k_x")
			}
		}
	}
}

// BenchmarkEngineThroughput measures raw co-simulation speed: quanta per
// second of the deterministic engine on an 8-node silent cluster at ground
// truth.
func BenchmarkEngineThroughput(b *testing.B) {
	w := workloads.Silent(2 * clustersim.Millisecond)
	cfg := clustersim.NewConfig(8, w.New)
	b.ResetTimer()
	totalQuanta := 0
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalQuanta += res.Stats.Quanta
	}
	b.ReportMetric(float64(totalQuanta)/b.Elapsed().Seconds(), "quanta/s")
}

// BenchmarkEngineWithTraffic measures engine speed under heavy frame load.
func BenchmarkEngineWithTraffic(b *testing.B) {
	w := workloads.Phases(3, 100*clustersim.Microsecond, 64<<10)
	cfg := clustersim.NewConfig(8, w.New)
	cfg.Policy = clustersim.AdaptiveQuantum(1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)
	b.ResetTimer()
	totalPackets := 0
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalPackets += res.Stats.Packets
	}
	b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
}

// BenchmarkObserverOverhead guards the cost of the observability hooks on
// the engine's hot path (routeFlight/stepNode, exercised by a packet-heavy
// phase workload):
//
//   - "nil" runs with no Observer — the default, and the configuration whose
//     throughput must stay within noise of the pre-instrumentation seed
//     (compare against BenchmarkEngineWithTraffic history): every hook site
//     is a single nil check and builds no records.
//   - "noop" attaches a do-nothing Observer, measuring the fixed price of
//     record construction and dynamic dispatch when hooks are enabled.
func BenchmarkObserverOverhead(b *testing.B) {
	mkCfg := func() clustersim.Config {
		w := workloads.Phases(3, 100*clustersim.Microsecond, 64<<10)
		cfg := clustersim.NewConfig(8, w.New)
		cfg.Policy = clustersim.AdaptiveQuantum(1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)
		return cfg
	}
	run := func(b *testing.B, cfg clustersim.Config) {
		b.ResetTimer()
		totalPackets := 0
		for i := 0; i < b.N; i++ {
			res, err := clustersim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			totalPackets += res.Stats.Packets
		}
		b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
	}
	b.Run("nil", func(b *testing.B) {
		run(b, mkCfg())
	})
	b.Run("noop", func(b *testing.B) {
		cfg := mkCfg()
		cfg.Observer = clustersim.ObserverBase{}
		run(b, cfg)
	})
}

// BenchmarkParallelRunner measures the real-goroutine runner: wall time to
// co-simulate an 8-node phase workload with true parallelism.
func BenchmarkParallelRunner(b *testing.B) {
	w := workloads.Phases(3, 200*clustersim.Microsecond, 32<<10)
	cfg := clustersim.NewConfig(8, w.New)
	cfg.Policy = clustersim.AdaptiveQuantum(1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)
	cfg.MaxGuest = clustersim.GuestTime(10 * clustersim.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clustersim.RunParallel(cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroundTruth64Nodes measures the engine at the paper's largest
// configuration: one quantum per simulated microsecond across 64 nodes.
func BenchmarkGroundTruth64Nodes(b *testing.B) {
	w := workloads.Silent(500 * clustersim.Microsecond)
	cfg := clustersim.NewConfig(64, w.New)
	b.ResetTimer()
	totalQuanta := 0
	for i := 0; i < b.N; i++ {
		res, err := clustersim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		totalQuanta += res.Stats.Quanta
	}
	b.ReportMetric(float64(totalQuanta)/b.Elapsed().Seconds(), "quanta/s")
}
