package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/faults"
	"clustersim/internal/metrics"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// A workload is one benchmark row. Names are permanent: later issues cite
// recorded numbers by (workload, metric) name.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why string
	// ops is the fixed number of timed ops one child runs per round; counts
	// are constants, never time-based, so every S-sourced count repeats
	// exactly. Sized so a round's timed part takes about two seconds on the
	// 2-core reference box.
	ops int
	// tracedOps is the op count of the traced round.
	tracedOps int
	// engine is true for the five workloads whose op is one cluster.Run.
	engine bool
	// setup builds the workload's inputs from the seed and computes the
	// references its output check compares against.
	setup func(seed uint64, tr *tracer) (instance, error)
}

// An instance is a set-up workload inside one child process.
type instance interface {
	// run calls the workload's entry point once: this is the timed op.
	run() error
	// check is the output check of the last run, outside the timed span.
	check() error
	// exact returns the simulated (deterministic) end-to-end statistics.
	exact() map[string]float64
	// counts returns the S-sourced per-layer counts of the last op.
	counts() map[string]float64
	// fingerprint identifies the op's simulated outcome.
	fingerprint() string
	// extras runs the traced round's workload-specific comparison runs, n
	// ops per variant, and returns their per-layer metrics.
	extras(n int) (map[string]float64, error)
}

const (
	wlGTClassic = "gt-classic-ep8"
	wlGTFast    = "gt-fast-ep8"
	wlDyn       = "dyn-alltoall16"
	wlGraded    = "graded-mixedwan64"
	wlLossy     = "lossy-reliable8"
	wlSweep     = "sweep-fig6"
)

// uniformCount sizes graded-mixedwan64: messages per rank, chosen so one op
// takes 60-110 ms on the reference box and so the guest time (a sum of
// uniformCount exponential gaps) varies little from seed to seed.
const uniformCount = 100

var allWorkloads = []workload{
	{
		name: wlGTClassic, ops: 40, tracedOps: 10, engine: true,
		why:   "Ground-truth baseline (NAS EP, 8 nodes, Q=1us) on the classic event-queue walk: eventq, dispatch, guest.Step and host.HostCost do the work, msg/mpi/netmodel almost none.",
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupGT(wlGTClassic, seed, 0, tr) },
	},
	{
		name: wlGTFast, ops: 50, tracedOps: 10, engine: true,
		why:   "The identical simulation through runQuantumFast (Workers=1), bypassing eventq: the pair isolates event-queue and dispatch cost.",
		setup: func(seed uint64, tr *tracer) (instance, error) { return setupGT(wlGTFast, seed, 1, tr) },
	},
	{
		name: wlDyn, ops: 35, tracedOps: 10, engine: true,
		why:   "Packet-dominated (NAS IS, 16 nodes, adaptive quantum): msg fragmentation, mpi alltoall lowering, netmodel latency, routing, straggler classification, Algorithm 1 stepping.",
		setup: setupDyn,
	},
	{
		name: wlGraded, ops: 34, tracedOps: 10, engine: true,
		why:   "Paper-scale geometry (64 nodes, tight rack plus WAN singletons, Workers=2): lookahead partitioning, runQuantumGraded, workerpool fan-out, batched barrier routing; the only multicore row.",
		setup: setupGraded,
	},
	{
		name: wlLossy, ops: 60, tracedOps: 10, engine: true,
		why:   "Reliable transport under loss, duplication and jitter: acks, retransmit timers, duplicate suppression, faults.Decide per frame, mostly stragglers.",
		setup: setupLossy,
	},
	{
		name: wlSweep, ops: 6, tracedOps: 2,
		why:   "What a paperfigs user waits for: the 30 simulations of Figure 6's 8-node column through experiments.runAll, the worker pool and a fresh baseline cache.",
		setup: setupSweep,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineCase is an instance whose op is one cluster.Run.
type engineCase struct {
	name string
	cfg  cluster.Config
	// plain is cfg without the traced round's interposers.
	plain cluster.Config
	// ref is the same simulation run in set-up on a different engine path
	// and refPrint its fingerprint; every op must reproduce it.
	ref      *cluster.Result
	refPrint string
	// gt is the Q=1us run of the same config and fault plan, the paper's
	// accuracy reference; nil on the gt-* workloads, which are it.
	gt     *cluster.Result
	metric string
	// noStragglers holds on ground-truth runs (Q <= T).
	noStragglers bool
	reliable     bool
	tr           *tracer
	last         *cluster.Result
}

func baseConfig(w workloads.Workload, nodes int, seed uint64) cluster.Config {
	env := experiments.DefaultEnv()
	env.Host.Seed = seed
	return cluster.Config{
		Nodes:    nodes,
		Guest:    env.Guest,
		Net:      env.Net,
		Host:     env.Host,
		Program:  w.New,
		MaxGuest: env.MaxGuest,
	}
}

func fixedQ(q simtime.Duration) func() quantum.Policy {
	return func() quantum.Policy { return quantum.Fixed{Q: q} }
}

// newEngineCase finishes an engine workload's set-up: the reference
// fingerprint from refCfg (the same simulation on another path) and, when
// wantGT, the Q=1us accuracy reference. Interposers are attached last so the
// references run unobserved.
func newEngineCase(name string, cfg, refCfg cluster.Config, w workloads.Workload, wantGT bool, tr *tracer) (*engineCase, error) {
	ref, err := cluster.Run(refCfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	c := &engineCase{name: name, cfg: cfg, plain: cfg, ref: ref, refPrint: cluster.Fingerprint(ref), metric: w.Metric, tr: tr}
	if wantGT {
		gtCfg := refCfg
		gtCfg.Policy = fixedQ(simtime.Microsecond)
		gtCfg.Workers = 1
		if c.gt, err = cluster.Run(gtCfg); err != nil {
			return nil, fmt.Errorf("ground-truth run: %w", err)
		}
	}
	if tr != nil {
		if err := tr.attach(&c.cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func setupGT(name string, seed uint64, workers int, tr *tracer) (instance, error) {
	w, err := experiments.ResolveWorkload("nas.ep", 0.2)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(w, 8, seed)
	cfg.Policy = fixedQ(simtime.Microsecond)
	cfg.Workers = workers
	refCfg := cfg
	refCfg.Workers = 1 - workers
	c, err := newEngineCase(name, cfg, refCfg, w, false, tr)
	if err != nil {
		return nil, err
	}
	c.noStragglers = true
	return c, nil
}

func setupDyn(seed uint64, tr *tracer) (instance, error) {
	w, err := experiments.ResolveWorkload("nas.is", 0.1)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(w, 16, seed)
	cfg.Policy = func() quantum.Policy {
		return quantum.NewAdaptive(simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02)
	}
	refCfg := cfg
	refCfg.Workers = 1
	return newEngineCase(wlDyn, cfg, refCfg, w, true, tr)
}

func setupGraded(seed uint64, tr *tracer) (instance, error) {
	w := workloads.Uniform(uniformCount, 4000, 100*simtime.Microsecond, seed)
	cfg := baseConfig(w, 64, seed)
	sw, err := experiments.ParseTopo("mixedwan:4:500ns:2us")
	if err != nil {
		return nil, err
	}
	net := *cfg.Net
	net.Switch = sw
	cfg.Net = &net
	cfg.Policy = fixedQ(2 * simtime.Microsecond)
	cfg.Lookahead = cluster.LookaheadMatrix
	cfg.Workers = 2
	// The reference path is the classic event-queue walk. Its fingerprint is
	// compared whole, so it keeps the matrix mode: the four engagement
	// counters in Stats are part of the fingerprint and are accounted
	// differently under LookaheadScalar by design. The scalar run is held
	// to everything else.
	refCfg := cfg
	refCfg.Workers = 0
	c, err := newEngineCase(wlGraded, cfg, refCfg, w, true, tr)
	if err != nil {
		return nil, err
	}
	refCfg.Lookahead = cluster.LookaheadScalar
	scalar, err := cluster.Run(refCfg)
	if err != nil {
		return nil, fmt.Errorf("scalar-lookahead run: %w", err)
	}
	if a, b := sansEngagement(scalar), sansEngagement(c.ref); a != b {
		return nil, fmt.Errorf("LookaheadScalar result %s differs from LookaheadMatrix %s beyond engagement accounting", a, b)
	}
	return c, nil
}

// sansEngagement fingerprints a result with the lookahead-engagement
// counters cleared.
func sansEngagement(res *cluster.Result) string {
	r := *res
	r.Stats.FastFullQuanta, r.Stats.FastPartialQuanta = 0, 0
	r.Stats.FastNodeQuanta, r.Stats.PartialPartitions = 0, 0
	return cluster.Fingerprint(&r)
}

func setupLossy(seed uint64, tr *tracer) (instance, error) {
	w := workloads.ReliablePhases(64, 2*simtime.Millisecond, 64<<10)
	cfg := baseConfig(w, 8, seed)
	cfg.Policy = fixedQ(100 * simtime.Microsecond)
	var err error
	if cfg.Faults, err = faults.Parse("loss=0.02,dup=0.005,jitter=5us", seed); err != nil {
		return nil, err
	}
	refCfg := cfg
	refCfg.Workers = 1
	c, err := newEngineCase(wlLossy, cfg, refCfg, w, true, tr)
	if err != nil {
		return nil, err
	}
	c.reliable = true
	return c, nil
}

func (c *engineCase) run() error {
	if c.tr != nil {
		c.tr.beginRun("cluster.run")
		defer c.tr.endRun()
	}
	res, err := cluster.Run(c.cfg)
	if err == nil {
		c.last = res
	}
	return err
}

func (c *engineCase) check() error { return c.checkResult(c.last) }

// checkResult is the per-op output check: every rank finished in time, the
// fingerprint equals the reference path's (and so every earlier op's), and
// the delivery conservation law holds.
func (c *engineCase) checkResult(res *cluster.Result) error {
	if len(res.NodeFinish) != c.cfg.Nodes {
		return fmt.Errorf("%d of %d ranks finished", len(res.NodeFinish), c.cfg.Nodes)
	}
	for rank, f := range res.NodeFinish {
		if f <= 0 || (c.cfg.MaxGuest > 0 && f > c.cfg.MaxGuest) {
			return fmt.Errorf("rank %d finish time %v outside (0, MaxGuest]", rank, f)
		}
	}
	if got := cluster.Fingerprint(res); got != c.refPrint {
		return fmt.Errorf("fingerprint %s differs from the reference path's %s", got, c.refPrint)
	}
	s := res.Stats
	if s.Deliveries != s.Packets-s.Dropped+s.Duplicated {
		return fmt.Errorf("conservation: %d deliveries, want %d packets - %d dropped + %d duplicated",
			s.Deliveries, s.Packets, s.Dropped, s.Duplicated)
	}
	if c.noStragglers && s.Stragglers != 0 {
		return fmt.Errorf("%d stragglers on a ground-truth run", s.Stragglers)
	}
	if c.reliable {
		if f := sumNodeMetric(res, "msg_failures"); f != 0 {
			return fmt.Errorf("%v reliable-transport delivery failures", f)
		}
	}
	return nil
}

func sumNodeMetric(res *cluster.Result, name string) float64 {
	var sum float64
	for _, m := range res.Metrics {
		sum += m[name]
	}
	return sum
}

func (c *engineCase) fingerprint() string { return cluster.Fingerprint(c.last) }

func (c *engineCase) exact() map[string]float64 {
	if c.gt == nil {
		return nil
	}
	m, _ := c.last.Metric(c.metric)
	base, _ := c.gt.Metric(c.metric)
	return map[string]float64{
		mAccErr:     100 * metrics.RelError(m, base),
		mSimSpeedup: metrics.Speedup(float64(c.last.HostTime), float64(c.gt.HostTime)),
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func (c *engineCase) counts() map[string]float64 {
	res := c.last
	s := res.Stats
	host := float64(s.HostBusy + s.HostIdle + s.HostBarrier)
	// Under a fault plan the controller asks faults.Decide once per routed
	// frame; without one it never calls the layer.
	decisions := 0
	if c.cfg.Faults != nil {
		decisions = s.Packets
	}
	return map[string]float64{
		"cluster.quanta_per_op":              float64(s.Quanta),
		"cluster.packets_per_op":             float64(s.Packets),
		"cluster.deliveries_per_op":          float64(s.Deliveries),
		"cluster.stragglers_per_op":          float64(s.Stragglers),
		"cluster.snaps_per_op":               float64(s.QuantumSnaps),
		"cluster.silent_quanta_per_op":       float64(s.SilentQuanta),
		"cluster.fast_full_quanta_per_op":    float64(s.FastFullQuanta),
		"cluster.fast_partial_quanta_per_op": float64(s.FastPartialQuanta),
		"cluster.fast_node_share_pct":        pct(float64(s.FastNodeQuanta), float64(c.cfg.Nodes*s.Quanta)),
		"cluster.mean_q_us":                  s.MeanQ.Microseconds(),
		"cluster.host_busy_share_pct":        pct(float64(s.HostBusy), host),
		"cluster.host_idle_share_pct":        pct(float64(s.HostIdle), host),
		"cluster.host_barrier_share_pct":     pct(float64(s.HostBarrier), host),
		"msg.frames_per_op":                  float64(s.Packets),
		"msg.retransmits_per_op":             sumNodeMetric(res, "msg_retransmits"),
		"msg.timeouts_per_op":                sumNodeMetric(res, "msg_timeouts"),
		"msg.failures_per_op":                sumNodeMetric(res, "msg_failures"),
		"msg.useful_frame_ratio":             pct(float64(s.Deliveries-s.Duplicated), float64(s.Packets)) / 100,
		"faults.decisions_per_op":            float64(decisions),
		"faults.dropped_per_op":              float64(s.Dropped),
		"faults.duplicated_per_op":           float64(s.Duplicated),
	}
}

// sweepCase is the sweep-fig6 instance: one op is the whole Figure 6 grid.
type sweepCase struct {
	env experiments.Env
	// plain is env without the traced round's interposers.
	plain   experiments.Env
	refRows []experiments.AggRow
	tr      *tracer
	rows    []experiments.AggRow
	stats   experiments.BaselineCacheStats
}

// The sweep is Figure 6's 8-node column: 5 kernels x (5 specs + 1 ground
// truth). The full figure (2, 4 and 8 nodes, 90 simulations) takes 0.8 s per
// op with both cores busy, and on the shared reference box no op of a
// 12-second run is then undisturbed: its floor spread was 22% over ten runs.
// The column is the figure's most expensive third and the one its headline
// accuracy row comes from.
const (
	sweepScale    = 0.1
	sweepSims     = 30
	sweepBaseline = 5
)

var sweepNodes = []int{8}

func setupSweep(seed uint64, tr *tracer) (instance, error) {
	env := experiments.DefaultEnv()
	env.Host.Seed = seed
	c := &sweepCase{env: env, plain: env, tr: tr}
	if tr != nil {
		if err := tr.attachNet(&c.env.Net, 8); err != nil {
			return nil, err
		}
	}
	ref := env
	ref.Workers = 1
	rows, _, err := experiments.Fig6(ref, sweepScale, sweepNodes)
	if err != nil {
		return nil, fmt.Errorf("sequential reference sweep: %w", err)
	}
	c.refRows = rows
	return c, nil
}

func (c *sweepCase) run() error {
	if c.tr != nil {
		c.tr.beginRun("experiments.fig6")
		defer c.tr.endRun()
	}
	env := c.env
	env.Baselines = experiments.NewBaselineCache()
	rows, _, err := experiments.Fig6(env, sweepScale, sweepNodes)
	if err == nil {
		c.rows, c.stats = rows, env.Baselines.Stats()
	}
	return err
}

func (c *sweepCase) check() error {
	if !reflect.DeepEqual(c.rows, c.refRows) {
		return fmt.Errorf("rows differ from the Env.Workers=1 reference sweep")
	}
	if c.stats.Misses != sweepBaseline || c.stats.Hits != 0 {
		return fmt.Errorf("baseline cache: %d misses %d hits, want %d and 0", c.stats.Misses, c.stats.Hits, sweepBaseline)
	}
	return nil
}

// headlineRow is the 8-node adaptive row the sweep's accuracy and simulated
// speedup are read from.
func (c *sweepCase) headlineRow() experiments.AggRow {
	for _, r := range c.rows {
		if r.Nodes == 8 && r.Config == "dyn 1k 1.03:0.02" {
			return r
		}
	}
	return experiments.AggRow{}
}

func (c *sweepCase) fingerprint() string { return rowsPrint(c.rows) }

// rowsPrint hashes a sweep's rows the way cluster.Fingerprint hashes a
// Result: %v prints floats in shortest round-trip form.
func rowsPrint(rows []experiments.AggRow) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", rows)))
	return hex.EncodeToString(sum[:])
}

func (c *sweepCase) exact() map[string]float64 {
	r := c.headlineRow()
	return map[string]float64{mAccErr: 100 * r.AccErr, mSimSpeedup: r.Speedup}
}

func (c *sweepCase) counts() map[string]float64 {
	return map[string]float64{
		"experiments.sims_per_op":            sweepSims,
		"experiments.baseline_misses_per_op": float64(c.stats.Misses),
		"experiments.baseline_hits_per_op":   float64(c.stats.Hits),
	}
}
