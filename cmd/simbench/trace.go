package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// A span is one traced interval. IDs are indices into the child's span
// slice; Parent is -1 for a root. Spans of one op share Op. An aggregate
// span (Count > 0) folds Count intervals totalling TotalNS: the traced round
// keeps cluster.quantum/cluster.barrier individually only for the first
// maxQuantumSpans quanta of the first traced op.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
	TotalNS int64  `json:"total_ns,omitempty"`
}

// maxQuantumSpans caps the individually recorded quantum/barrier spans of
// the first traced op (a gt-* op has ~50k quanta; the rest fold into that
// op's aggregate spans).
const maxQuantumSpans = 2048

// tracer is the traced round's instrumentation of one workload: counting
// interposers on the public netmodel and quantum interfaces and a stamping
// obs.Observer. Interposers only count — a time.Now pair costs more than the
// 10-20 ns calls it would wrap — so in-run layer time is estimated from
// these counts and the drivers' unit costs (the est_ metrics).
type tracer struct {
	obs.Base
	epoch time.Time

	// Interposer counts, cumulative over the traced ops. The netmodel
	// counters are atomic because Workers >= 2 walks nodes on pool
	// goroutines; the rest are touched only by the engine goroutine.
	switchCalls, nicCalls atomic.Int64
	nextCalls, grow       int64
	shrink, segments      int64

	// Spans.
	spans   []span
	opID    int
	opSpan  int // index of the current bench.op span
	runSpan int // index of the current cluster.run span

	// Quantum stamps of the current run.
	qStart, qEnd   time.Time
	quantumNS      []int64 // every QuantumStart->QuantumEnd interval, all ops
	barrierNS      []int64 // every QuantumEnd->next QuantumStart interval
	runQuantumNS   int64
	runBarrierNS   int64
	runQuanta      int64
	totalQuantumNS int64
	totalRunNS     int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), opSpan: -1, runSpan: -1} }

// reset forgets everything counted and recorded so far (the warm-up op),
// keeping the epoch and the attached interposers.
func (t *tracer) reset() {
	t.switchCalls.Store(0)
	t.nicCalls.Store(0)
	t.nextCalls, t.grow, t.shrink, t.segments = 0, 0, 0, 0
	t.spans, t.opID, t.opSpan, t.runSpan = nil, 0, -1, -1
	t.quantumNS, t.barrierNS = nil, nil
	t.totalQuantumNS, t.totalRunNS = 0, 0
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.opID, StartNS: t.since(time.Now())})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) { t.spans[id].EndNS = t.since(time.Now()) }

// beginOp and endOp bracket one traced op (entry point plus output check).
func (t *tracer) beginOp() {
	t.opID++
	t.opSpan = t.open("bench.op", -1)
}

func (t *tracer) endOp() { t.close(t.opSpan) }

// beginRun and endRun bracket the workload's entry point call, a span named
// after the entry point.
func (t *tracer) beginRun(name string) {
	t.runSpan = t.open(name, t.opSpan)
	t.qEnd = time.Time{}
	t.runQuantumNS, t.runBarrierNS, t.runQuanta = 0, 0, 0
}

func (t *tracer) endRun() {
	t.close(t.runSpan)
	run := &t.spans[t.runSpan]
	t.totalRunNS += run.EndNS - run.StartNS
	t.totalQuantumNS += t.runQuantumNS
	if t.runQuanta == 0 {
		return
	}
	for _, agg := range []struct {
		name  string
		total int64
	}{{"cluster.quantum", t.runQuantumNS}, {"cluster.barrier", t.runBarrierNS}} {
		t.spans = append(t.spans, span{
			Name: agg.name, Parent: t.runSpan, Op: t.opID,
			StartNS: run.StartNS, EndNS: run.EndNS, Count: t.runQuanta, TotalNS: agg.total,
		})
	}
}

func (t *tracer) individual() bool { return t.opID == 1 && t.runQuanta < maxQuantumSpans }

// QuantumStart implements obs.Observer: closes the barrier interval that
// began at the previous QuantumEnd (policy step and bookkeeping).
func (t *tracer) QuantumStart(int, simtime.Guest, simtime.Duration, simtime.Host) {
	now := time.Now()
	if !t.qEnd.IsZero() {
		d := now.Sub(t.qEnd).Nanoseconds()
		t.barrierNS = append(t.barrierNS, d)
		t.runBarrierNS += d
		if t.individual() {
			t.spans = append(t.spans, span{Name: "cluster.barrier", Parent: t.runSpan, Op: t.opID, StartNS: t.since(t.qEnd), EndNS: t.since(now)})
		}
	}
	t.qStart = now
}

// QuantumEnd implements obs.Observer: closes the walk+route interval.
func (t *tracer) QuantumEnd(obs.QuantumRecord) {
	now := time.Now()
	d := now.Sub(t.qStart).Nanoseconds()
	t.quantumNS = append(t.quantumNS, d)
	t.runQuantumNS += d
	if t.individual() {
		t.spans = append(t.spans, span{Name: "cluster.quantum", Parent: t.runSpan, Op: t.opID, StartNS: t.since(t.qStart), EndNS: t.since(now)})
	}
	t.runQuanta++
	t.qEnd = now
}

// NodePhase implements obs.Observer: counts guest segments.
func (t *tracer) NodePhase(int, obs.Phase, simtime.Guest, simtime.Guest, simtime.Host, simtime.Host) {
	t.segments++
}

type countingSwitch struct {
	netmodel.SwitchModel
	n *atomic.Int64
}

func (s countingSwitch) Latency(f *pkt.Frame, src, dst int) simtime.Duration {
	s.n.Add(1)
	return s.SwitchModel.Latency(f, src, dst)
}

type countingNIC struct {
	netmodel.NICModel
	n *atomic.Int64
}

func (c countingNIC) Serialization(f *pkt.Frame) simtime.Duration {
	c.n.Add(1)
	return c.NICModel.Serialization(f)
}

func (c countingNIC) SendLatency(f *pkt.Frame) simtime.Duration {
	c.n.Add(1)
	return c.NICModel.SendLatency(f)
}

func (c countingNIC) RecvLatency(f *pkt.Frame) simtime.Duration {
	c.n.Add(1)
	return c.NICModel.RecvLatency(f)
}

type countingPolicy struct {
	quantum.Policy
	t    *tracer
	prev simtime.Duration
}

func (p *countingPolicy) First() simtime.Duration {
	p.prev = p.Policy.First()
	return p.prev
}

func (p *countingPolicy) Next(fb quantum.Feedback) simtime.Duration {
	q := p.Policy.Next(fb)
	p.t.nextCalls++
	switch {
	case q > p.prev:
		p.t.grow++
	case q < p.prev:
		p.t.shrink++
	}
	p.prev = q
	return q
}

// attachNet replaces *net with a copy whose NIC and switch count calls. The
// original is validated first: Model.Validate type-asserts *MatrixSwitch,
// which the wrapper would hide.
func (t *tracer) attachNet(net **netmodel.Model, nodes int) error {
	if err := (*net).Validate(nodes); err != nil {
		return err
	}
	m := **net
	m.NIC = countingNIC{m.NIC, &t.nicCalls}
	m.Switch = countingSwitch{m.Switch, &t.switchCalls}
	*net = &m
	return nil
}

// attach instruments an engine config: counting netmodel and policy
// wrappers plus the stamping Observer.
func (t *tracer) attach(cfg *cluster.Config) error {
	if err := t.attachNet(&cfg.Net, cfg.Nodes); err != nil {
		return err
	}
	inner := cfg.Policy
	cfg.Policy = func() quantum.Policy { return &countingPolicy{Policy: inner(), t: t} }
	cfg.Observer = t
	return nil
}

func nsToUS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

// layerCounts returns the interposer counts per op and the T metrics.
func (t *tracer) layerCounts(ops int, engine bool) map[string]float64 {
	n := float64(ops)
	out := map[string]float64{
		"netmodel.switch_calls_per_op": float64(t.switchCalls.Load()) / n,
		"netmodel.nic_calls_per_op":    float64(t.nicCalls.Load()) / n,
	}
	if !engine {
		return out
	}
	out["quantum.next_calls_per_op"] = float64(t.nextCalls) / n
	out["quantum.grow_steps_per_op"] = float64(t.grow) / n
	out["quantum.shrink_steps_per_op"] = float64(t.shrink) / n
	out["guest.segments_per_op"] = float64(t.segments) / n
	out["cluster.quantum_span_us_p50"] = median(nsToUS(t.quantumNS))
	out["cluster.barrier_span_us_p50"] = median(nsToUS(t.barrierNS))
	out["cluster.walk_route_share_pct"] = pct(float64(t.totalQuantumNS), float64(t.totalRunNS))
	return out
}

// compareRuns times n rounds of the given variants, one op of each per
// round in fixed order so a noisy burst lands on all of them, and returns
// each variant's median op time in ms. A variant checks its own output
// inside the timed span; the check costs microseconds.
func compareRuns(n int, variants ...func() error) ([]float64, error) {
	samples := make([][]float64, len(variants))
	for i := 0; i < n; i++ {
		for v, run := range variants {
			t0 := time.Now()
			if err := run(); err != nil {
				return nil, err
			}
			samples[v] = append(samples[v], float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	out := make([]float64, len(variants))
	for v := range variants {
		out[v] = median(samples[v])
	}
	return out, nil
}

// runVariant returns a closure running cfg after edit and checking the
// result against the workload's reference, so a comparison run that
// diverges fails loudly instead of timing a different simulation.
func (c *engineCase) runVariant(edit func(*cluster.Config)) func() error {
	cfg := c.plain
	edit(&cfg)
	return func() error {
		res, err := cluster.Run(cfg)
		if err != nil {
			return err
		}
		return c.checkResult(res)
	}
}

// extras runs the traced round's workload-specific comparisons, untraced
// (no interposers), after the traced ops.
func (c *engineCase) extras(n int) (map[string]float64, error) {
	out := map[string]float64{}
	switch c.name {
	case wlGraded:
		ms, err := compareRuns(n,
			c.runVariant(func(cfg *cluster.Config) { cfg.Workers = 0 }),
			c.runVariant(func(cfg *cluster.Config) { cfg.Workers = 1 }),
			c.runVariant(func(cfg *cluster.Config) { cfg.Workers = 2 }))
		if err != nil {
			return nil, err
		}
		out["cluster.workers0_ms_p50"] = ms[0]
		out["cluster.workers1_ms_p50"] = ms[1]
		if runtime.GOMAXPROCS(0) >= 2 {
			out["cluster.workers2_over_workers1"] = ms[2] / ms[1]
		}
	case wlDyn:
		// A Profiler accumulates one run, so each profiled run gets a
		// fresh one; the last one's report supplies the simulated share.
		var p *prof.Profiler
		profiled := func() error {
			cfg := c.plain
			p = prof.New()
			cfg.Profiler = p
			res, err := cluster.Run(cfg)
			if err != nil {
				return err
			}
			return c.checkResult(res)
		}
		ms, err := compareRuns(n,
			c.runVariant(func(*cluster.Config) {}),
			c.runVariant(func(cfg *cluster.Config) { cfg.Observer = obs.Base{} }),
			profiled)
		if err != nil {
			return nil, err
		}
		out["obs.noop_overhead_pct"] = 100 * (ms[1]/ms[0] - 1)
		out["prof.overhead_pct"] = 100 * (ms[2]/ms[0] - 1)
		tot := p.Report().Totals
		out["prof.barrier_wait_share_pct"] = pct(float64(tot.WaitNS), float64(tot.ComputeNS+tot.IdleNS+tot.WaitNS))
	}
	return out, nil
}

func (c *sweepCase) extras(n int) (map[string]float64, error) {
	sweep := func(workers int) func() error {
		return func() error {
			env := c.plain
			env.Workers = workers
			env.Baselines = experiments.NewBaselineCache()
			rows, _, err := experiments.Fig6(env, sweepScale, sweepNodes)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(rows, c.refRows) {
				return fmt.Errorf("comparison sweep (Env.Workers=%d) differs from the reference", workers)
			}
			return nil
		}
	}
	ms, err := compareRuns(n, sweep(1), sweep(0))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"experiments.seq_ms_p50": ms[0]}
	if runtime.GOMAXPROCS(0) >= 2 {
		out["experiments.pool_speedup_x"] = ms[0] / ms[1]
	}
	return out, nil
}
