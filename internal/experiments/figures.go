package experiments

import (
	"fmt"
	"sort"
	"strings"

	"clustersim/internal/cluster"
	"clustersim/internal/metrics"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

// AggRow is one bar of Figures 6 and 7: a configuration at a node count with
// suite-level accuracy error and speedup.
type AggRow struct {
	Config string
	Nodes  int
	// AccErr is the relative error of the harmonic-mean metric (NAS) or of
	// the wall-clock time (NAMD) versus ground truth.
	AccErr float64
	// Speedup is the whole-suite host-time ratio versus ground truth.
	Speedup float64
}

// Fig6 reproduces Figure 6: the five NAS kernels at 2, 4 and 8 nodes under
// the standard configurations; accuracy is the harmonic mean over the suite
// (the NAS aggregation rule), speedup is the suite's total host time ratio.
func Fig6(env Env, scale float64, nodeCounts []int) ([]AggRow, []Cell, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8}
	}
	cells, err := Grid(env, NASSuite(scale), nodeCounts, StandardSpecs())
	if err != nil {
		return nil, nil, err
	}
	rows := aggregateNAS(cells, nodeCounts, StandardSpecs())
	return rows, cells, nil
}

func aggregateNAS(cells []Cell, nodeCounts []int, specs []Spec) []AggRow {
	// One pass over the cells into (nodes, config) buckets, then emit in
	// the fixed nodeCounts × specs order. Cells arrive workload-major, so
	// each bucket accumulates in the same cell order the per-bucket scans
	// used to — the float sums are bit-identical to the old O(buckets ×
	// cells) aggregation.
	type bucket struct {
		mops, baseMops    []float64
		hostCfg, hostBase float64
	}
	type bkey struct {
		nodes  int
		config string
	}
	buckets := make(map[bkey]*bucket, len(nodeCounts)*len(specs))
	for i := range cells {
		c := &cells[i]
		k := bkey{c.Nodes, c.Config}
		b := buckets[k]
		if b == nil {
			b = &bucket{}
			buckets[k] = b
		}
		b.mops = append(b.mops, c.Metric)
		b.baseMops = append(b.baseMops, c.BaseMetric)
		b.hostCfg += float64(c.HostTime)
		b.hostBase += c.Speedup * float64(c.HostTime)
	}
	var rows []AggRow
	for _, n := range nodeCounts {
		for _, spec := range specs {
			b := buckets[bkey{n, spec.Label}]
			if b == nil || len(b.mops) == 0 {
				continue
			}
			rows = append(rows, AggRow{
				Config:  spec.Label,
				Nodes:   n,
				AccErr:  metrics.RelError(metrics.HarmonicMean(b.mops), metrics.HarmonicMean(b.baseMops)),
				Speedup: b.hostBase / b.hostCfg,
			})
		}
	}
	return rows
}

// Fig7 reproduces Figure 7: NAMD at 2, 4 and 8 nodes under the standard
// configurations. Accuracy is the relative wall-clock deviation.
func Fig7(env Env, scale float64, nodeCounts []int) ([]AggRow, []Cell, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8}
	}
	cells, err := Grid(env, []workloads.Workload{NAMDWorkload(scale)}, nodeCounts, StandardSpecs())
	if err != nil {
		return nil, nil, err
	}
	var rows []AggRow
	for _, c := range cells {
		rows = append(rows, AggRow{Config: c.Config, Nodes: c.Nodes, AccErr: c.AccErr, Speedup: c.Speedup})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Nodes != rows[j].Nodes {
			return rows[i].Nodes < rows[j].Nodes
		}
		return rows[i].Config < rows[j].Config
	})
	return rows, cells, nil
}

// Fig8 reproduces Figure 8: the 8-node NAS and NAMD configurations plotted
// in the (accuracy error, speedup) plane, with the Pareto front marked.
type Fig8Out struct {
	Points []metrics.Point
	Front  []metrics.Point
	// NearFront maps each adaptive point to its distance from the front
	// (the paper's claim: all adaptive configurations lie on or very near
	// it).
	NearFront map[string]float64
}

// Fig8 derives the Pareto plot from already-computed Figure 6/7 cells (so
// the expensive grid runs once); pass the nodes count the paper uses (8).
func Fig8(nasRows, namdRows []AggRow, nodes int) Fig8Out {
	var pts []metrics.Point
	add := func(prefix string, rows []AggRow) {
		for _, r := range rows {
			if r.Nodes != nodes {
				continue
			}
			pts = append(pts, metrics.Point{
				Name:    prefix + " " + r.Config,
				Err:     r.AccErr,
				Speedup: r.Speedup,
			})
		}
	}
	add("NAS", nasRows)
	add("NAMD", namdRows)
	out := Fig8Out{Points: pts, Front: metrics.ParetoFront(pts), NearFront: map[string]float64{}}
	for _, p := range pts {
		if strings.Contains(p.Name, "dyn") {
			out.NearFront[p.Name] = metrics.DistanceToFront(p, pts)
		}
	}
	return out
}

// ScaleOutRow is one row of the Section 6 tables: a configuration of a
// 64-node benchmark.
type ScaleOutRow struct {
	Config string
	// Accel is "Acceleration vs. 1µs": the host-time speedup.
	Accel float64
	// AccErr is "Accuracy Error vs. 1µs" (EP, NAMD tables).
	AccErr float64
	// ExecRatio is "Simulated Exec. Ratio vs. 1µs" (IS table): how many
	// times longer the simulated execution claimed to take.
	ExecRatio float64
}

// ScaleOut is the outcome of one Figure 9 case study.
type ScaleOut struct {
	Benchmark string
	Nodes     int
	Rows      []ScaleOutRow
	// TrafficChart is the Figure 9 left chart (from the ground-truth run).
	TrafficChart string
	// SpeedupCharts maps config label → Figure 9 right chart.
	SpeedupCharts map[string]string
	// AdaptiveMeanQ is the mean quantum the adaptive run settled on — the
	// paper's observation that it "automatically adjusts to approximate the
	// best quantum".
	AdaptiveMeanQ simtime.Duration
}

// Fig9Case runs one Section 6 scale-out case study: benchmark w on nodes
// nodes under the given specs (the first spec must be the adaptive one so
// its mean quantum can be reported).
func Fig9Case(env Env, w workloads.Workload, nodes int, dyn Spec, fixed []Spec, chartWidth int) (*ScaleOut, error) {
	out := &ScaleOut{
		Benchmark:     w.Name,
		Nodes:         nodes,
		SpeedupCharts: map[string]string{},
	}

	var baseRec obs.Recorder
	baseRes, err := runGroundTruth(env, w, nodes, &baseRec, nil)
	if err != nil {
		return nil, err
	}
	baseMetric, ok := baseRes.Metric(w.Metric)
	if !ok {
		return nil, fmt.Errorf("experiments: %s did not report %q", w.Name, w.Metric)
	}
	out.TrafficChart = trace.TrafficChart(baseRec.Packets, nodes, baseRes.GuestTime, chartWidth)
	baseRate := float64(baseRes.GuestTime) / float64(baseRes.HostTime)

	specs := append([]Spec{dyn}, fixed...)
	type outcome struct {
		row   ScaleOutRow
		chart string
		meanQ simtime.Duration
	}
	results := make([]outcome, len(specs))
	var jobs []job
	for i, spec := range specs {
		i, spec := i, spec
		jobs = append(jobs, job{name: spec.Label, run: func() error {
			var rec obs.Recorder
			res, err := runOne(env, w, nodes, spec, &rec, nil)
			if err != nil {
				return err
			}
			m, _ := res.Metric(w.Metric)
			row := ScaleOutRow{
				Config: spec.Label,
				Accel:  metrics.Speedup(float64(res.HostTime), float64(baseRes.HostTime)),
				AccErr: metrics.RelError(m, baseMetric),
			}
			// The IS table reports the simulated-time blow-up directly.
			row.ExecRatio = float64(res.GuestTime) / float64(baseRes.GuestTime)
			series := trace.SpeedupSeries(rec.Quanta, baseRate, chartWidth, res.GuestTime)
			results[i] = outcome{
				row:   row,
				chart: trace.LogChart(series, 1, 100, 8, fmt.Sprintf("%s %s speedup vs 1µs over time", w.Name, spec.Label)),
				meanQ: res.Stats.MeanQ,
			}
			return nil
		}})
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	for i, r := range results {
		out.Rows = append(out.Rows, r.row)
		out.SpeedupCharts[specs[i].Label] = r.chart
		if i == 0 {
			out.AdaptiveMeanQ = r.meanQ
		}
	}
	return out, nil
}

// Fig9 runs all three Section 6 case studies (EP, IS, NAMD at 64 nodes)
// with the table configurations of the paper.
func Fig9(env Env, scale float64, nodes, chartWidth int) ([]*ScaleOut, error) {
	if nodes == 0 {
		nodes = 64
	}
	nas := NASSuite(scale)
	var ep, is workloads.Workload
	for _, w := range nas {
		switch w.Name {
		case "nas.ep":
			ep = w
		case "nas.is":
			is = w
		}
	}
	fixed := []Spec{
		FixedSpec("100", 100*simtime.Microsecond),
		FixedSpec("10", 10*simtime.Microsecond),
	}
	var outs []*ScaleOut
	epOut, err := Fig9Case(env, ep, nodes, DynSpec("dyn 1:100", 1*simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.1), fixed, chartWidth)
	if err != nil {
		return nil, err
	}
	outs = append(outs, epOut)
	// IS uses the paper's "very conservative adaptation schedule (slow
	// acceleration and fast deceleration)".
	isOut, err := Fig9Case(env, is, nodes, DynSpec("dyn 1:100 conservative", 1*simtime.Microsecond, 100*simtime.Microsecond, 1.02, 0.05), fixed, chartWidth)
	if err != nil {
		return nil, err
	}
	outs = append(outs, isOut)
	namdOut, err := Fig9Case(env, NAMDWorkload(scale), nodes, DynSpec("dyn 2:100", 2*simtime.Microsecond, 100*simtime.Microsecond, 1.03, 0.14), fixed, chartWidth)
	if err != nil {
		return nil, err
	}
	outs = append(outs, namdOut)
	return outs, nil
}

// RunQuantumTrace runs one configuration recorded and returns the result
// together with an ASCII chart of the quantum over guest time (the adaptive
// algorithm's decisions).
func RunQuantumTrace(env Env, w workloads.Workload, nodes int, spec Spec, width int) (*cluster.Result, string, error) {
	var rec obs.Recorder
	res, err := runOne(env, w, nodes, spec, &rec, nil)
	if err != nil {
		return nil, "", err
	}
	series := trace.QuantumSeries(rec.Quanta, width, res.GuestTime)
	return res, trace.LogChart(series, 1, 1100, 8, "quantum duration (µs) over guest time"), nil
}
