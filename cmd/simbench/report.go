package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

const schema = "clustersim-bench/1"

// resultDoc is the clustersim-bench/1 document -out writes.
type resultDoc struct {
	Schema    string           `json:"schema"`
	Host      hostStamp        `json:"host"`
	Rounds    int              `json:"rounds"`
	OpsScale  float64          `json:"ops_scale"`
	Workloads []workloadResult `json:"workloads"`
	// Drivers are the workload-independent D metrics (empty when the traced
	// round was not run).
	Drivers  []metricValue `json:"drivers,omitempty"`
	Failures []string      `json:"failures,omitempty"`
}

type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Seed       uint64 `json:"seed"`
}

type workloadResult struct {
	Name        string `json:"name"`
	Why         string `json:"why"`
	Fingerprint string `json:"fingerprint"`
	// Ops and Failed count the untraced rounds' timed ops; TracedOps and
	// TracedFailed the traced round's.
	Ops          int           `json:"ops"`
	Failed       int           `json:"failed"`
	TracedOps    int           `json:"traced_ops,omitempty"`
	TracedFailed int           `json:"traced_failed,omitempty"`
	EndToEnd     []metricValue `json:"end_to_end"`
	PerLayer     []metricValue `json:"per_layer,omitempty"`
}

// metricValue is one reported metric. NA, when set, is why the value was
// refused (and Value is meaningless).
type metricValue struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Layer  string  `json:"layer,omitempty"`
	Source string  `json:"source"`
	Value  float64 `json:"value"`
	NA     string  `json:"na,omitempty"`
	// Samples is the number of pooled per-op samples behind a percentile.
	Samples int `json:"samples,omitempty"`
	// Rounds holds the per-round values of a timing or memory metric and
	// NoisePct their largest pairwise gap over Value; Unresolved marks a
	// noise above the metric's bound.
	Rounds     []float64 `json:"rounds,omitempty"`
	NoisePct   float64   `json:"noise_pct,omitempty"`
	Unresolved bool      `json:"unresolved,omitempty"`
}

func (d *resultDoc) failed() int {
	n := 0
	for _, w := range d.Workloads {
		n += w.Failed + w.TracedFailed
	}
	return n
}

func stampHost(seed uint64) hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

// minRounds is the floor on untraced rounds when -seconds sets the length:
// set-up time and the noise self-report both need several rounds.
const minRounds = 3

// measure runs the whole protocol: untraced rounds with one child per
// workload in fixed order (so a noisy burst on a shared box is spread over
// all workloads), then, unless -trace 0, one traced child per workload and
// the drivers.
func measure(o options, ws []workload, spawn spawnFunc) (*resultDoc, [][]span, error) {
	start := time.Now()
	untraced := make([][]*childReport, len(ws))
	rounds := 0
	for ; ; rounds++ {
		if o.seconds == 0 && rounds >= o.rounds {
			break
		}
		if o.seconds > 0 && rounds >= minRounds && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
		for i, w := range ws {
			rep, err := spawn(childOpts{workload: w.name, seed: o.seed, opsScale: o.opsScale})
			if err != nil {
				return nil, nil, err
			}
			untraced[i] = append(untraced[i], rep)
		}
	}
	doc := &resultDoc{Schema: schema, Host: stampHost(o.seed), Rounds: rounds, OpsScale: o.opsScale}
	traced := make([]*childReport, len(ws))
	var unit map[string]float64
	var spans [][]span
	if o.trace != "0" {
		for i, w := range ws {
			rep, err := spawn(childOpts{workload: w.name, seed: o.seed, opsScale: o.opsScale, traced: true})
			if err != nil {
				return nil, nil, err
			}
			traced[i] = rep
			spans = append(spans, rep.Spans)
		}
		var dspans []span
		var err error
		if unit, dspans, err = runDrivers(o.opsScale); err != nil {
			return nil, nil, err
		}
		spans = append(spans, dspans)
		for _, def := range perLayer {
			if def.on == onDrivers {
				doc.Drivers = append(doc.Drivers, metricValue{Name: def.name, Unit: def.unit, Layer: def.layer, Source: def.source, Value: unit[def.name]})
			}
		}
	}
	for i, w := range ws {
		res := summarize(w, untraced[i], traced[i], unit)
		doc.Workloads = append(doc.Workloads, res)
		for _, rep := range untraced[i] {
			doc.Failures = append(doc.Failures, rep.Failures...)
		}
		if traced[i] != nil {
			doc.Failures = append(doc.Failures, traced[i].Failures...)
		}
	}
	return doc, spans, nil
}

// summarize pools one workload's child reports into its metrics.
func summarize(w workload, untraced []*childReport, traced *childReport, unit map[string]float64) workloadResult {
	res := workloadResult{Name: w.name, Why: w.why}
	var wall, cpu, mallocs, allocKB []float64
	perRound := map[string][]float64{}
	for _, rep := range untraced {
		res.Ops += len(rep.WallMS)
		res.Failed += rep.Failed
		wall = append(wall, rep.WallMS...)
		cpu = append(cpu, rep.CPUMS...)
		mallocs = append(mallocs, rep.Mallocs...)
		allocKB = append(allocKB, rep.AllocKB...)
		perRound[mWallFloor] = append(perRound[mWallFloor], minOf(rep.WallMS))
		perRound[mCPUFloor] = append(perRound[mCPUFloor], minOf(rep.CPUMS))
		perRound[mWall] = append(perRound[mWall], median(rep.WallMS))
		perRound[mCPU] = append(perRound[mCPU], mean(rep.CPUMS))
		perRound[mAllocs] = append(perRound[mAllocs], mean(rep.Mallocs))
		perRound[mAllocKB] = append(perRound[mAllocKB], mean(rep.AllocKB))
		perRound[mRSS] = append(perRound[mRSS], rep.PeakRSSMB)
		perRound[mSetup] = append(perRound[mSetup], rep.SetupS)
	}
	last := untraced[len(untraced)-1]
	res.Fingerprint = last.Fingerprint
	// The floor statistics are the fastest op of the whole run. Every op
	// does identical work, so interference from the shared box only ever
	// adds time, and it comes in bursts of seconds: the fastest of a few
	// hundred ops is the least disturbed sample of the intrinsic cost, and
	// the more rounds a run has, the likelier one of them was quiet.
	value := map[string]float64{
		mWallFloor: minOf(perRound[mWallFloor]),
		mCPUFloor:  minOf(perRound[mCPUFloor]),
		mWall:      median(wall),
		mCPU:       mean(cpu),
		mAllocs:    mean(mallocs),
		mAllocKB:   mean(allocKB),
		mRSS:       maxOf(perRound[mRSS]),
		mSetup:     median(perRound[mSetup]),
		mFailRatio: float64(res.Failed) / float64(res.Ops),
	}
	for k, v := range last.Exact {
		value[k] = v
	}
	for _, def := range endToEnd {
		if !def.appliesTo(w) {
			continue
		}
		mv := metricValue{Name: def.name, Unit: def.unit, Source: def.source, Value: value[def.name]}
		if def.name == mWall {
			mv.Samples = len(wall)
		}
		if r := perRound[def.name]; r != nil {
			mv.Rounds = r
			mv.NoisePct = noisePct(r, mv.Value)
			mv.Unresolved = def.bound > 0 && mv.NoisePct > 100*def.bound &&
				!(def.name == mSetup && maxOf(r)-minOf(r) < setupAbsFloorS)
		}
		res.EndToEnd = append(res.EndToEnd, mv)
	}
	if traced == nil {
		return res
	}
	res.TracedOps = len(traced.WallMS)
	res.TracedFailed = traced.Failed
	layer := traced.Layer
	if layer == nil {
		layer = map[string]float64{}
	}
	// Derived timings use the floor on both sides for the same reason the
	// gate does.
	tracedMS := minOf(traced.WallMS)
	layer["cluster.trace_overhead_pct"] = 100 * (tracedMS/value[mWallFloor] - 1)
	layer["netmodel.est_ms_per_op"] = layer["netmodel.switch_calls_per_op"] * unit["netmodel.frame_latency_ns"] / 1e6
	if w.engine {
		layer["cluster.run_ms_p90"] = quantile(wall, 0.9)
		layer["cluster.quanta_per_s"] = layer["cluster.quanta_per_op"] / value[mWallFloor] * 1e3
		layer["cluster.packets_per_s"] = layer["cluster.packets_per_op"] / value[mWallFloor] * 1e3
		layer["quantum.est_ms_per_op"] = layer["quantum.next_calls_per_op"] * unit["quantum.next_ns"] / 1e6
		layer["faults.est_ms_per_op"] = layer["faults.decisions_per_op"] * unit["faults.decide_ns"] / 1e6
		layer["cluster.self_ms_per_op"] = tracedMS - layer["netmodel.est_ms_per_op"] - layer["quantum.est_ms_per_op"] - layer["faults.est_ms_per_op"]
	}
	for _, def := range perLayer {
		if !def.appliesTo(w) {
			continue
		}
		mv := metricValue{Name: def.name, Unit: def.unit, Layer: def.layer, Source: def.source}
		v, ok := layer[def.name]
		switch {
		case ok:
			mv.Value = v
		case def.needs2 && runtime.GOMAXPROCS(0) < 2:
			mv.NA = "GOMAXPROCS<2"
		default:
			mv.NA = "not measured"
		}
		if def.name == "cluster.run_ms_p90" {
			mv.Samples = len(wall)
		}
		res.PerLayer = append(res.PerLayer, mv)
	}
	return res
}

func printMetric(w io.Writer, mv metricValue) {
	if mv.NA != "" {
		fmt.Fprintf(w, "  %-36s n/a: %s\n", mv.Name, mv.NA)
		return
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-8s [%s]", mv.Name, mv.Value, mv.Unit, mv.Source)
	if mv.Samples > 0 {
		fmt.Fprintf(w, " n=%d", mv.Samples)
	}
	if mv.Rounds != nil {
		fmt.Fprintf(w, " noise_pct=%.2f", mv.NoisePct)
	}
	if mv.Unresolved {
		fmt.Fprint(w, " UNRESOLVED")
	}
	fmt.Fprintln(w)
}

// printDoc prints every metric by name with its unit.
func printDoc(w io.Writer, d *resultDoc) {
	h := d.Host
	fmt.Fprintf(w, "simbench %s seed=%d nproc=%d GOMAXPROCS=%d %s rev=%s rounds=%d ops-scale=%g\n",
		d.Schema, h.Seed, h.NProc, h.GOMAXPROCS, h.Go, h.Revision, d.Rounds, d.OpsScale)
	for _, wr := range d.Workloads {
		fmt.Fprintf(w, "== %s ops=%d failed=%d traced_ops=%d traced_failed=%d fingerprint=%s\n",
			wr.Name, wr.Ops, wr.Failed, wr.TracedOps, wr.TracedFailed, wr.Fingerprint)
		for _, mv := range wr.EndToEnd {
			printMetric(w, mv)
		}
		for _, mv := range wr.PerLayer {
			printMetric(w, mv)
		}
	}
	if len(d.Drivers) > 0 {
		fmt.Fprintln(w, "== drivers")
		for _, mv := range d.Drivers {
			printMetric(w, mv)
		}
	}
	for _, f := range d.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// printDriverLine ends the output with the one JSON line the benchmark
// driver reads: the bounded end-to-end metrics, or with perLayerSet every
// other declared metric. A metric that does not apply to the workload (or
// was refused) reads 0 there; the text above says n/a.
func printDriverLine(w io.Writer, d *resultDoc, perLayerSet bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := d.Workloads[0]
	got := map[string]float64{}
	for _, set := range [][]metricValue{wr.EndToEnd, wr.PerLayer, d.Drivers} {
		for _, mv := range set {
			if mv.NA == "" {
				got[mv.Name] = mv.Value
			}
		}
	}
	metrics := map[string]val{}
	for _, def := range endToEnd {
		if (def.bound > 0) != perLayerSet {
			metrics[def.name] = val{got[def.name], def.unit}
		}
	}
	if perLayerSet {
		for _, def := range perLayer {
			metrics[def.name] = val{got[def.name], def.unit}
		}
	}
	failed := wr.Failed + wr.TracedFailed
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{failed == 0, wr.Ops + wr.TracedOps, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
