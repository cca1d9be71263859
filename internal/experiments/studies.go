package experiments

import (
	"strconv"

	"clustersim/internal/host"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// The sensitivity sweeps and extension studies. Each is a point list handed
// to Measure; what a study reports beyond error and speedup (the settled
// quantum, the traffic density) is an expression over its cells.

// AblationIncDec sweeps Algorithm 1's increase and decrease factors on one
// workload, quantifying the paper's §3 guidance that "the best
// configurations are those that grow the quantum in very small increments
// (such as 2% to 5%) but decrease it very quickly". Cells are inc-major and
// labelled like "1.03:0.02".
func AblationIncDec(env Env, w workloads.Workload, nodes int, incs, decs []float64) ([]Cell, error) {
	var points []Point
	for _, inc := range incs {
		for _, dec := range decs {
			points = append(points, Point{Workload: w, Nodes: nodes,
				Spec: DynSpec(trim(inc)+":"+trim(dec), 1*simtime.Microsecond, 1000*simtime.Microsecond, inc, dec)})
		}
	}
	return Measure(env, points)
}

func trim(f float64) string {
	return strconv.FormatFloat(f, 'g', 3, 64)
}

// AblationOracle compares Algorithm 1 against the perfect-lookahead Oracle
// (DESIGN A4): the Oracle knows every future send instant (taken from the
// recorded ground-truth run) and is the upper bound of any traffic-driven
// quantum scheme. The paper argues such lookahead is unobtainable in
// full-system simulation; this sweep quantifies how much of the oracle's
// speedup the blind adaptive algorithm recovers.
func AblationOracle(env Env, w workloads.Workload, nodes int, min, max simtime.Duration) ([]Cell, error) {
	// The first point is the ground truth itself, recorded; Measure resolves
	// it before the oracle's policy is built.
	var rec obs.Recorder
	oracle := func() quantum.Policy {
		sendTimes := make([]simtime.Guest, 0, len(rec.Packets))
		for _, p := range rec.Packets {
			sendTimes = append(sendTimes, p.SendGuest)
		}
		return quantum.NewOracle(min, max, sendTimes)
	}
	cells, err := Measure(env, []Point{
		{Workload: w, Nodes: nodes, Rec: &rec},
		{Workload: w, Nodes: nodes, Spec: DynSpec("dyn 1.03:0.02", min, max, 1.03, 0.02)},
		{Workload: w, Nodes: nodes, Spec: DynSpec("dyn 1.05:0.02", min, max, 1.05, 0.02)},
		{Workload: w, Nodes: nodes, Spec: Spec{Label: "oracle", Policy: oracle}},
	})
	if err != nil {
		return nil, err
	}
	return cells[1:], nil
}

// AblationHost sweeps the host model's barrier cost and jitter on one
// workload and measures a large fixed quantum (Q = 1000µs) against the ground
// truth of the same host — showing which host property the synchronization
// overhead (the paper's Figure 5) actually comes from. Cells are
// barrier-major and labelled like "barrier=1.3ms σ=0.22".
func AblationHost(env Env, w workloads.Workload, nodes int, barriers []simtime.Duration, jitters []float64) ([]Cell, error) {
	var points []Point
	for _, bc := range barriers {
		for _, jit := range jitters {
			e := env
			e.Host.BarrierCost = bc
			e.Host.JitterSigma = jit
			points = append(points, Point{Workload: w, Nodes: nodes, Env: &e, Truth: &e,
				Spec: FixedSpec("barrier="+bc.String()+" σ="+trim(jit), 1000*simtime.Microsecond)})
		}
	}
	return Measure(env, points)
}

// SamplingStudy demonstrates the paper's §7 future-work proposal: "combine
// this technique with 'sampling' of the individual node simulators to take
// further advantage of another accuracy/speed tradeoff. We believe that the
// combination of these techniques will open up a much wider application
// space". It runs the workload under ground truth and the adaptive quantum,
// each with and without a sampled host (10% detail, fast functional
// emulation otherwise), all compared against the unsampled ground truth.
func SamplingStudy(env Env, w workloads.Workload, nodes int, s host.Sampling) ([]Cell, error) {
	sampled := env
	sampled.Host.Sampling = &s
	adaptive := func(label string) Spec {
		return DynSpec(label, 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02)
	}
	return Measure(env, []Point{
		{Workload: w, Nodes: nodes, Spec: Spec{Label: "Q=1µs"}},
		{Workload: w, Nodes: nodes, Spec: FixedSpec("Q=1µs + sampling", 1*simtime.Microsecond), Env: &sampled},
		{Workload: w, Nodes: nodes, Spec: adaptive("adaptive")},
		{Workload: w, Nodes: nodes, Spec: adaptive("adaptive + sampling"), Env: &sampled},
	})
}

// DefaultSampling returns a 10%-detail schedule typical of sampled
// simulators (SMARTS-style detail intervals at the millisecond scale).
func DefaultSampling() host.Sampling {
	return host.Sampling{
		Period:         2 * simtime.Millisecond,
		DetailFraction: 0.1,
		FastSlowdown:   2,
	}
}
