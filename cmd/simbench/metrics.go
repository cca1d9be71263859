package main

import (
	"math"
	"sort"
)

// Metric sources. S counts are exact and repeat from run to run; T and D are
// wall-clock measurements of this host.
const (
	srcUntraced = "untraced" // timed ops of the untraced rounds
	srcExact    = "exact"    // simulated statistic, deterministic
	srcS        = "S"        // in-situ count (Result.Stats, node metrics, counting interposer)
	srcT        = "T"        // wall stamps taken by the traced round's Observer
	srcD        = "D"        // driver loop over one layer's public functions
	srcTraced   = "traced"   // extra timed comparison runs in the traced child
	srcDerived  = "derived"  // arithmetic over the above
)

// Where a metric is reported.
const (
	onAll     = "all"    // every workload
	onEngine  = "engine" // the five workloads whose op is one cluster.Run
	onNonGT   = "non-gt" // every workload with a separate Q=1us reference
	onDrivers = "-"      // workload-independent: reported once, in the drivers section
)

const (
	mWallFloor  = "wall_ms_floor"
	mCPUFloor   = "cpu_ms_floor"
	mWall       = "wall_ms_p50"
	mCPU        = "cpu_ms_per_op"
	mAllocs     = "allocs_per_op"
	mAllocKB    = "alloc_kb_per_op"
	mRSS        = "peak_rss_mb"
	mSetup      = "setup_s"
	mFailRatio  = "fail_ratio"
	mAccErr     = "acc_err_pct"
	mSimSpeedup = "sim_speedup_x"
)

// metricDef declares one metric. BENCHMARK.json lists the same names, units
// and directions (main_test.go holds the two together); the layer, source and
// applicability live only here and in README.md.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string // module name; "" for end-to-end metrics
	source string
	on     string // onAll, onEngine, onNonGT, onDrivers, or one workload name
	// bound is the relative worsening BENCHMARK.json allows an end-to-end
	// metric; zero for per-layer metrics and for the end-to-end metrics
	// BENCHMARK.json does not bound.
	bound float64
	// needs2 marks a parallel ratio that is refused (n/a: GOMAXPROCS<2) on a
	// one-core host.
	needs2 bool
}

// endToEnd are the end-to-end metrics, in print order. Six carry a relative
// bound in BENCHMARK.json. The median wall clock and mean CPU per op, which
// ISSUE 11 bounds at 0.10, do not: on the shared reference box their
// run-to-run spread reaches 14-22% when neighbours are busy (README.md,
// "Noise"), so by the issue's own rule they are reported without a bound and
// the gate sits on the floor statistics, which halve that spread. The last
// three are judged by absolute rules (compare.go): they are zero or
// deterministic, which a relative bound cannot express.
var endToEnd = []metricDef{
	{name: mWallFloor, bound: 0.25, unit: "ms", better: "lower", source: srcUntraced, on: onAll},
	{name: mCPUFloor, bound: 0.25, unit: "ms", better: "lower", source: srcUntraced, on: onAll},
	{name: mAllocs, bound: 0.02, unit: "count", better: "lower", source: srcUntraced, on: onAll},
	{name: mAllocKB, bound: 0.05, unit: "KiB", better: "lower", source: srcUntraced, on: onAll},
	{name: mRSS, bound: 0.15, unit: "MiB", better: "lower", source: srcUntraced, on: onAll},
	{name: mSetup, bound: 0.25, unit: "s", better: "lower", source: srcUntraced, on: onAll},
	{name: mWall, unit: "ms", better: "lower", source: srcUntraced, on: onAll},
	{name: mCPU, unit: "ms", better: "lower", source: srcUntraced, on: onAll},
	{name: mFailRatio, unit: "fraction", better: "lower", source: srcUntraced, on: onAll},
	{name: mAccErr, unit: "%", better: "lower", source: srcExact, on: onNonGT},
	{name: mSimSpeedup, unit: "x", better: "higher", source: srcExact, on: onNonGT},
}

// perLayer are the per-layer metrics, grouped by layer, in print order.
var perLayer = []metricDef{
	{name: "cluster.quanta_per_op", unit: "count", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.packets_per_op", unit: "count", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.deliveries_per_op", unit: "count", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.stragglers_per_op", unit: "count", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.snaps_per_op", unit: "count", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.silent_quanta_per_op", unit: "count", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.fast_full_quanta_per_op", unit: "count", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.fast_partial_quanta_per_op", unit: "count", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.fast_node_share_pct", unit: "%", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.mean_q_us", unit: "us", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.host_busy_share_pct", unit: "%", better: "higher", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.host_idle_share_pct", unit: "%", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.host_barrier_share_pct", unit: "%", better: "lower", layer: "cluster", source: srcS, on: onEngine},
	{name: "cluster.run_ms_p90", unit: "ms", better: "lower", layer: "cluster", source: srcUntraced, on: onEngine},
	{name: "cluster.quanta_per_s", unit: "1/s", better: "higher", layer: "cluster", source: srcDerived, on: onEngine},
	{name: "cluster.packets_per_s", unit: "1/s", better: "higher", layer: "cluster", source: srcDerived, on: onEngine},
	{name: "cluster.quantum_span_us_p50", unit: "us", better: "lower", layer: "cluster", source: srcT, on: onEngine},
	{name: "cluster.barrier_span_us_p50", unit: "us", better: "lower", layer: "cluster", source: srcT, on: onEngine},
	{name: "cluster.walk_route_share_pct", unit: "%", better: "lower", layer: "cluster", source: srcT, on: onEngine},
	{name: "cluster.self_ms_per_op", unit: "ms", better: "lower", layer: "cluster", source: srcDerived, on: onEngine},
	{name: "cluster.trace_overhead_pct", unit: "%", better: "lower", layer: "cluster", source: srcDerived, on: onAll},
	{name: "cluster.workers0_ms_p50", unit: "ms", better: "lower", layer: "cluster", source: srcTraced, on: wlGraded},
	{name: "cluster.workers1_ms_p50", unit: "ms", better: "lower", layer: "cluster", source: srcTraced, on: wlGraded},
	{name: "cluster.workers2_over_workers1", unit: "x", better: "lower", layer: "cluster", source: srcTraced, on: wlGraded, needs2: true},

	{name: "eventq.pushpop_ns_d8", unit: "ns", better: "lower", layer: "eventq", source: srcD, on: onDrivers},
	{name: "eventq.pushpop_ns_d64", unit: "ns", better: "lower", layer: "eventq", source: srcD, on: onDrivers},
	{name: "eventq.pushremove_ns_d64", unit: "ns", better: "lower", layer: "eventq", source: srcD, on: onDrivers},

	{name: "guest.step_ns", unit: "ns", better: "lower", layer: "guest", source: srcD, on: onDrivers},
	{name: "guest.deliver_batch_ns_per_frame", unit: "ns", better: "lower", layer: "guest", source: srcD, on: onDrivers},
	{name: "guest.segments_per_op", unit: "count", better: "lower", layer: "guest", source: srcS, on: onEngine},

	{name: "msg.ns_per_frame", unit: "ns", better: "lower", layer: "msg", source: srcD, on: onDrivers},
	{name: "msg.ns_per_frame_reliable", unit: "ns", better: "lower", layer: "msg", source: srcD, on: onDrivers},
	{name: "msg.allocs_per_msg_64k", unit: "count", better: "lower", layer: "msg", source: srcD, on: onDrivers},
	{name: "msg.frames_per_op", unit: "count", better: "lower", layer: "msg", source: srcS, on: onEngine},
	{name: "msg.retransmits_per_op", unit: "count", better: "lower", layer: "msg", source: srcS, on: onEngine},
	{name: "msg.timeouts_per_op", unit: "count", better: "lower", layer: "msg", source: srcS, on: onEngine},
	{name: "msg.failures_per_op", unit: "count", better: "lower", layer: "msg", source: srcS, on: onEngine},
	{name: "msg.useful_frame_ratio", unit: "ratio", better: "higher", layer: "msg", source: srcS, on: onEngine},

	{name: "mpi.alltoall8_us", unit: "us", better: "lower", layer: "mpi", source: srcD, on: onDrivers},
	{name: "mpi.allreduce8_us", unit: "us", better: "lower", layer: "mpi", source: srcD, on: onDrivers},

	{name: "netmodel.frame_latency_ns", unit: "ns", better: "lower", layer: "netmodel", source: srcD, on: onDrivers},
	{name: "netmodel.frame_latency_fattree_ns", unit: "ns", better: "lower", layer: "netmodel", source: srcD, on: onDrivers},
	{name: "netmodel.lookahead_matrix64_us", unit: "us", better: "lower", layer: "netmodel", source: srcD, on: onDrivers},
	{name: "netmodel.switch_calls_per_op", unit: "count", better: "lower", layer: "netmodel", source: srcS, on: onAll},
	{name: "netmodel.nic_calls_per_op", unit: "count", better: "lower", layer: "netmodel", source: srcS, on: onAll},
	{name: "netmodel.est_ms_per_op", unit: "ms", better: "lower", layer: "netmodel", source: srcDerived, on: onAll},

	{name: "host.hostcost_window_ns", unit: "ns", better: "lower", layer: "host", source: srcD, on: onDrivers},
	{name: "host.hostcost_long_ns", unit: "ns", better: "lower", layer: "host", source: srcD, on: onDrivers},
	{name: "host.guestat_ns", unit: "ns", better: "lower", layer: "host", source: srcD, on: onDrivers},

	{name: "quantum.next_ns", unit: "ns", better: "lower", layer: "quantum", source: srcD, on: onDrivers},
	{name: "quantum.next_calls_per_op", unit: "count", better: "lower", layer: "quantum", source: srcS, on: onEngine},
	{name: "quantum.grow_steps_per_op", unit: "count", better: "higher", layer: "quantum", source: srcS, on: onEngine},
	{name: "quantum.shrink_steps_per_op", unit: "count", better: "lower", layer: "quantum", source: srcS, on: onEngine},
	{name: "quantum.est_ms_per_op", unit: "ms", better: "lower", layer: "quantum", source: srcDerived, on: onEngine},

	{name: "faults.decide_ns", unit: "ns", better: "lower", layer: "faults", source: srcD, on: onDrivers},
	{name: "faults.decisions_per_op", unit: "count", better: "lower", layer: "faults", source: srcS, on: onEngine},
	{name: "faults.dropped_per_op", unit: "count", better: "lower", layer: "faults", source: srcS, on: onEngine},
	{name: "faults.duplicated_per_op", unit: "count", better: "lower", layer: "faults", source: srcS, on: onEngine},
	{name: "faults.est_ms_per_op", unit: "ms", better: "lower", layer: "faults", source: srcDerived, on: onEngine},

	{name: "workerpool.run64_w1_us", unit: "us", better: "lower", layer: "workerpool", source: srcD, on: onDrivers},
	{name: "workerpool.run64_w2_us", unit: "us", better: "lower", layer: "workerpool", source: srcD, on: onDrivers},

	{name: "experiments.sims_per_op", unit: "count", better: "lower", layer: "experiments", source: srcS, on: wlSweep},
	{name: "experiments.baseline_misses_per_op", unit: "count", better: "lower", layer: "experiments", source: srcS, on: wlSweep},
	{name: "experiments.baseline_hits_per_op", unit: "count", better: "higher", layer: "experiments", source: srcS, on: wlSweep},
	{name: "experiments.seq_ms_p50", unit: "ms", better: "lower", layer: "experiments", source: srcTraced, on: wlSweep},
	{name: "experiments.pool_speedup_x", unit: "x", better: "higher", layer: "experiments", source: srcTraced, on: wlSweep, needs2: true},

	{name: "obs.noop_overhead_pct", unit: "%", better: "lower", layer: "obs", source: srcTraced, on: wlDyn},
	{name: "prof.overhead_pct", unit: "%", better: "lower", layer: "prof", source: srcTraced, on: wlDyn},
	{name: "prof.barrier_wait_share_pct", unit: "%", better: "lower", layer: "prof", source: srcS, on: wlDyn},
}

// appliesTo reports whether a metric is reported on workload w.
func (d metricDef) appliesTo(w workload) bool {
	switch d.on {
	case onAll:
		return true
	case onEngine:
		return w.engine
	case onNonGT:
		return w.name != wlGTClassic && w.name != wlGTFast
	case onDrivers:
		return false
	}
	return d.on == w.name
}

// median returns the middle of vs (mean of the two middles for even n); 0
// for an empty slice.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

// noisePct is the benchmark's noise self-report for one metric: the largest
// pairwise gap between the per-round values as a percentage of the pooled
// value. One round gives no spread and reports 0.
func noisePct(rounds []float64, pooled float64) float64 {
	if len(rounds) < 2 || pooled == 0 {
		return 0
	}
	lo, hi := rounds[0], rounds[0]
	for _, v := range rounds[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return 100 * (hi - lo) / math.Abs(pooled)
}
