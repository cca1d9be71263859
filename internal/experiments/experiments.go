// Package experiments defines the paper's evaluation matrix on top of the
// cluster engine: Measure, and one point list over it per table and figure
// (see DESIGN.md §8 for the experiment index).
//
// The methodology follows §4–5 of the paper exactly: every configuration is
// compared against the Q = 1µs run of the same seed (the deterministic
// "ground truth"); accuracy error is the relative deviation of the
// application's self-reported metric; speedup is the ratio of host execution
// times.
package experiments

import (
	"fmt"
	"strings"

	"clustersim/internal/cluster"
	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/metrics"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// Env is the shared simulation environment of an experiment: everything
// except the workload, node count and quantum policy.
type Env struct {
	Guest    guest.Config
	Net      *netmodel.Model
	Host     host.Params
	MaxGuest simtime.Guest
	// Workers bounds how many independent simulations of an experiment grid
	// run concurrently (each simulation is single-threaded and
	// deterministic). 0 means GOMAXPROCS; 1 forces fully sequential
	// execution. Whatever the value, results are assembled in the same
	// fixed order, so every experiment output is worker-count independent.
	Workers int
	// Baselines, when non-nil, memoizes ground-truth (Q = 1µs) runs across
	// experiment runners, so regenerating every figure pays for each
	// distinct (workload, nodes, env) baseline exactly once. Nil recomputes
	// baselines per Measure call.
	Baselines *BaselineCache
	// Faults, when non-nil, applies deterministic fault injection (loss,
	// duplication, jitter, down windows, node slowdown) to every run of the
	// experiment — including the ground truth, which under faults is the
	// Q = 1µs run of the *same* fault plan. Part of the baseline memoization
	// key via its canonical fingerprint.
	Faults *faults.Plan
	// Profiles, when non-nil, attaches a sync-overhead profiler to every run
	// of the experiment, labelled by Label. The sweep's report is canonical
	// regardless of Workers: registration order is erased by sorting and
	// byte-identical duplicates (e.g. a baseline run shared across runners)
	// collapse.
	Profiles *prof.Sweep
}

// DefaultEnv returns the paper's evaluation environment: 2.6 GHz guests,
// 10 GB/s NICs with 1µs latency and jumbo frames, a perfect switch, and the
// calibrated host model.
func DefaultEnv() Env {
	return Env{
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Host:     host.DefaultParams(),
		MaxGuest: simtime.Guest(200 * simtime.Second),
	}
}

// Config is the one place an environment becomes a run configuration: every
// cluster.Config field that Env, a workload, a node count and a policy
// determine. Callers add what is theirs — sinks, a shared speed table.
func (env Env) Config(w workloads.Workload, nodes int, policy func() quantum.Policy) cluster.Config {
	return cluster.Config{
		Nodes:    nodes,
		Guest:    env.Guest,
		Net:      env.Net,
		Host:     env.Host,
		Policy:   policy,
		Program:  w.New,
		MaxGuest: env.MaxGuest,
		Faults:   env.Faults,
	}
}

// Spec names a quantum policy configuration.
type Spec struct {
	Label  string
	Policy func() quantum.Policy
}

// FixedSpec builds a fixed-quantum configuration labelled like the paper
// ("10", "100", "1k").
func FixedSpec(label string, q simtime.Duration) Spec {
	return Spec{Label: label, Policy: func() quantum.Policy { return quantum.Fixed{Q: q} }}
}

// DynSpec builds an adaptive configuration.
func DynSpec(label string, min, max simtime.Duration, inc, dec float64) Spec {
	return Spec{Label: label, Policy: func() quantum.Policy {
		return quantum.NewAdaptive(min, max, inc, dec)
	}}
}

// GroundTruth is the paper's baseline: Q = 1µs, the only deterministically
// correct execution.
func GroundTruth() Spec { return FixedSpec("1", 1*simtime.Microsecond) }

// StandardSpecs returns the five non-baseline configurations of Figures 6–8:
// fixed 10µs/100µs/1000µs and the two best adaptive schedules.
func StandardSpecs() []Spec {
	return []Spec{
		FixedSpec("10", 10*simtime.Microsecond),
		FixedSpec("100", 100*simtime.Microsecond),
		FixedSpec("1k", 1000*simtime.Microsecond),
		DynSpec("dyn 1k 1.03:0.02", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02),
		DynSpec("dyn 1k 1.05:0.02", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.05, 0.02),
	}
}

// NASSuite returns the five NAS kernels of the paper with all compute
// phases scaled by scale (1.0 = the calibrated defaults).
func NASSuite(scale float64) []workloads.Workload {
	ep := workloads.DefaultEP()
	ep.SerialCompute = ep.SerialCompute.Scale(scale)
	is := workloads.DefaultIS()
	is.SerialComputePerIter = is.SerialComputePerIter.Scale(scale)
	cg := workloads.DefaultCG()
	cg.SerialComputePerInner = cg.SerialComputePerInner.Scale(scale)
	mg := workloads.DefaultMG()
	mg.SerialComputeFinest = mg.SerialComputeFinest.Scale(scale)
	lu := workloads.DefaultLU()
	lu.SerialComputePerStep = lu.SerialComputePerStep.Scale(scale)
	return []workloads.Workload{
		workloads.EP(ep), workloads.IS(is), workloads.CG(cg),
		workloads.MG(mg), workloads.LU(lu),
	}
}

// NAMDWorkload returns the NAMD skeleton with compute scaled by scale.
func NAMDWorkload(scale float64) workloads.Workload {
	p := workloads.DefaultNAMD()
	p.SerialComputePerStep = p.SerialComputePerStep.Scale(scale)
	return workloads.NAMD(p)
}

// Cell is one measurement: a Point's run beside the ground truth of the same
// seed.
type Cell struct {
	Workload string
	Nodes    int
	Config   string
	// Metric is the application's self-reported result (MOPS or seconds).
	Metric float64
	// BaseMetric is the ground truth's value of the same metric.
	BaseMetric float64
	// AccErr is the relative accuracy error versus ground truth.
	AccErr float64
	// Speedup is hostTime(ground truth) / hostTime(this config).
	Speedup float64
	// GuestTime/HostTime echo the run's raw outcome, BaseGuestTime/
	// BaseHostTime the ground truth's.
	GuestTime     simtime.Guest
	HostTime      simtime.Duration
	BaseGuestTime simtime.Guest
	BaseHostTime  simtime.Duration
	Stats         cluster.Stats
}

// ExecRatio is the Section 6 "Simulated Exec. Ratio vs. 1µs": how many times
// longer than the ground truth the simulated execution claimed to take.
func (c Cell) ExecRatio() float64 { return float64(c.GuestTime) / float64(c.BaseGuestTime) }

// PacketsPerGuestMS is the run's traffic density — frames routed per
// simulated millisecond, the quantity that caps the quantum.
func (c Cell) PacketsPerGuestMS() float64 {
	return float64(c.Stats.Packets) / (float64(c.GuestTime) / float64(simtime.Millisecond))
}

// Point is one run to measure against its ground truth.
type Point struct {
	Workload workloads.Workload
	Nodes    int
	// Spec is the configuration to run. A Spec without a Policy measures the
	// ground truth itself (error 0, speedup 1) under whatever Label it has.
	Spec Spec
	// Rec, when non-nil, receives the run's packet and quantum records. On a
	// ground-truth point the records may be shared with other callers of the
	// baseline cache: read-only.
	Rec *obs.Recorder
	// Env and Truth, when non-nil, replace Measure's env for the run and for
	// its ground truth (a host-model sweep varies both, a sampling study
	// only the run's).
	Env, Truth *Env
}

// runOne executes one configuration. rec, when non-nil, is attached to the
// run and holds its packet and quantum records afterwards; speeds is the
// sweep's shared table of host speed draws, nil outside one.
func runOne(env Env, w workloads.Workload, nodes int, spec Spec, rec *obs.Recorder, speeds *host.Speeds) (*cluster.Result, error) {
	cfg := env.Config(w, nodes, spec.Policy)
	cfg.Speeds = speeds
	// A nil *Recorder or *Profiler must not become a non-nil Observer.
	if rec != nil {
		cfg.Observer = rec
	}
	if env.Profiles != nil {
		// Labelled by the policy's name, as clustersim labels the same run.
		cfg.Observer = obs.Multi(cfg.Observer, env.Profiles.New(env.Label(w, nodes, spec.Policy().Name())))
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s ×%d %q: %w", w.Name, nodes, spec.Label, err)
	}
	return res, nil
}

// Label names a run of w on nodes nodes under config, the quantum policy's
// Name(), in a report document: "workload/nodes/config", then the host
// settings that differ from the default host (hostLabel) after "/host:", and
// the fault plan's key after "/faults:" when faults are active. paperfigs
// labels every run of a sweep with it, clustersim its one run, so a label
// means the same in both.
func (env Env) Label(w workloads.Workload, nodes int, config string) string {
	label := fmt.Sprintf("%s/%d/%s", w.Name, nodes, config)
	if h := hostLabel(env.Host); h != "" {
		label += "/host:" + h
	}
	if env.Faults != nil {
		label += "/faults:" + env.Faults.Key()
	}
	return label
}

// hostLabel names the settings in which h differs from the default host, in
// a fixed order, or is empty for the default host. A sweep can run one
// workload, node count and spec under several hosts (the host ablation's
// ground truths), and its labels must tell those runs apart.
func hostLabel(h host.Params) string {
	d := host.DefaultParams()
	var parts []string
	add := func(differs bool, format string, v ...any) {
		if differs {
			parts = append(parts, fmt.Sprintf(format, v...))
		}
	}
	add(h.BarrierCost != d.BarrierCost, "barrier=%v", h.BarrierCost)
	add(h.JitterSigma != d.JitterSigma, "σ=%v", h.JitterSigma)
	add(h.JitterPeriod != d.JitterPeriod, "window=%v", h.JitterPeriod)
	add(h.BusySlowdown != d.BusySlowdown, "busy=%v", h.BusySlowdown)
	add(h.IdleSlowdown != d.IdleSlowdown, "idle=%v", h.IdleSlowdown)
	add(h.PacketTransit != d.PacketTransit, "transit=%v", h.PacketTransit)
	add(h.PacketHostCost != d.PacketHostCost, "routing=%v", h.PacketHostCost)
	add(h.Seed != d.Seed, "seed=%v", h.Seed)
	if s := h.Sampling; s != nil {
		add(true, "sampled=%v:%v:%v", s.Period, s.DetailFraction, s.FastSlowdown)
	}
	return strings.Join(parts, " ")
}

// Measure runs every point and compares it with its ground truth — the
// Q = 1µs run of the same workload, node count and seed — returning one Cell
// per point, in point order whatever Env.Workers is. It is the one place the
// evaluation's measurement happens; every study is a point list over it but
// FaultSweep, which compares its runs with each other and needs no ground
// truth.
//
// Points that share a ground truth (same workload fingerprint, node count
// and ground-truth env) share one run of it, obtained through Env.Baselines
// when a cache is attached. Every ground truth is resolved before the first
// point runs, so a Spec's Policy may read what a ground-truth point's Rec
// recorded. A workload that does not report its metric is an error.
//
// The runs of one call share their host speed draws: they mostly have the
// host seed, the node ids and the jitter windows in common, so each draw is
// computed by the first run to need it (host.Speeds; a run whose host model
// draws differently ignores the table). The table lives for this call only —
// like a fresh BaselineCache, every Measure starts cold.
func Measure(env Env, points []Point) ([]Cell, error) {
	most := 0
	for i := range points {
		most = max(most, points[i].Nodes)
	}
	return measure(env, points, host.NewSpeeds(env.Host, most))
}

// truth is one ground truth of a Measure call and the points' view of it.
type truth struct {
	env    Env
	w      workloads.Workload
	nodes  int
	rec    *obs.Recorder // non-nil when a ground-truth point wants the records
	res    *cluster.Result
	metric float64
}

// measure is Measure over a given table of speed draws; nil computes every
// draw in the run that needs it, which must give the same cells.
func measure(env Env, points []Point, speeds *host.Speeds) ([]Cell, error) {
	// Ground truths first, all of them, before any other point: a Spec's
	// Policy may read a ground-truth point's records. Each job writes its own
	// slot, so no lock and no completion-order effects.
	var truths []*truth
	of := make([]*truth, len(points))
	byKey := map[baselineKey]*truth{}
	for i := range points {
		p := &points[i]
		t := &truth{env: env, w: p.Workload, nodes: p.Nodes}
		if p.Truth != nil {
			t.env = *p.Truth
		}
		// A workload without a fingerprint is only known equal to itself.
		key := keyOf(t.env, t.w, t.nodes)
		if known := byKey[key]; known != nil && t.w.Key != "" {
			t = known
		} else {
			byKey[key] = t
			truths = append(truths, t)
		}
		if p.Spec.Policy == nil && p.Rec != nil && t.rec == nil {
			t.rec = &obs.Recorder{}
		}
		of[i] = t
	}
	jobs := make([]func() error, len(truths))
	for i, t := range truths {
		jobs[i] = func() (err error) {
			if t.res, err = t.env.Baselines.get(t.env, t.w, t.nodes, t.rec, speeds); err != nil {
				return err
			}
			m, ok := t.res.Metric(t.w.Metric)
			if !ok {
				return fmt.Errorf("experiments: %s did not report %q", t.w.Name, t.w.Metric)
			}
			t.metric = m
			return nil
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}

	cells := make([]Cell, len(points))
	fill := func(i int, res *cluster.Result) {
		p, t := &points[i], of[i]
		m, _ := res.Metric(p.Workload.Metric) // reported: the ground truth did
		cells[i] = Cell{
			Workload:      p.Workload.Name,
			Nodes:         p.Nodes,
			Config:        p.Spec.Label,
			Metric:        m,
			BaseMetric:    t.metric,
			AccErr:        metrics.RelError(m, t.metric),
			Speedup:       metrics.Speedup(float64(res.HostTime), float64(t.res.HostTime)),
			GuestTime:     res.GuestTime,
			HostTime:      res.HostTime,
			BaseGuestTime: t.res.GuestTime,
			BaseHostTime:  t.res.HostTime,
			Stats:         res.Stats,
		}
	}
	jobs = jobs[:0]
	for i := range points {
		p := &points[i]
		if p.Spec.Policy == nil {
			if p.Rec != nil {
				*p.Rec = *of[i].rec
			}
			fill(i, of[i].res)
			continue
		}
		jobs = append(jobs, func() error {
			penv := env
			if p.Env != nil {
				penv = *p.Env
			}
			res, err := runOne(penv, p.Workload, p.Nodes, p.Spec, p.Rec, speeds)
			if err == nil {
				fill(i, res)
			}
			return err
		})
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return cells, nil
}

// gridPoints lists every workload × node count × spec, workload-major, then
// node count, then spec.
func gridPoints(ws []workloads.Workload, nodeCounts []int, specs []Spec) []Point {
	points := make([]Point, 0, len(ws)*len(nodeCounts)*len(specs))
	for _, w := range ws {
		for _, n := range nodeCounts {
			for _, spec := range specs {
				points = append(points, Point{Workload: w, Nodes: n, Spec: spec})
			}
		}
	}
	return points
}

// Grid measures every workload × node count × config and returns one Cell
// per run, workload-major, then node count, then spec.
func Grid(env Env, ws []workloads.Workload, nodeCounts []int, specs []Spec) ([]Cell, error) {
	return Measure(env, gridPoints(ws, nodeCounts, specs))
}
