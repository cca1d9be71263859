// Package experiments defines the paper's evaluation matrix — one runner per
// table and figure — on top of the cluster engine (see DESIGN.md §5 for the
// experiment index).
//
// The methodology follows §4–5 of the paper exactly: every configuration is
// compared against the Q = 1µs run of the same seed (the deterministic
// "ground truth"); accuracy error is the relative deviation of the
// application's self-reported metric; speedup is the ratio of host execution
// times.
package experiments

import (
	"fmt"

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
	// baselines per runner, as before.
	Baselines *BaselineCache
	// Faults, when non-nil, applies deterministic fault injection (loss,
	// duplication, jitter, down windows, node slowdown) to every run of the
	// experiment — including the ground truth, which under faults is the
	// Q = 1µs run of the *same* fault plan. Part of the baseline memoization
	// key via its canonical fingerprint.
	Faults *faults.Plan
	// Profiles, when non-nil, attaches a sync-overhead profiler to every run
	// of the experiment, labelled "workload/nodes/config" (with the fault
	// fingerprint appended when faults are active). The sweep's report is
	// canonical regardless of Workers: registration order is
	// erased by sorting and byte-identical duplicates (e.g. a baseline run
	// shared across runners) collapse.
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

// Cell is one (workload, nodes, config) measurement of the evaluation grid.
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
	// GuestTime/HostTime echo the run's raw outcome.
	GuestTime simtime.Guest
	HostTime  simtime.Duration
	Stats     cluster.Stats
}

// runOne executes one configuration. rec, when non-nil, is attached to the
// run and holds its packet and quantum records afterwards; speeds is the
// sweep's shared table of host speed draws, nil outside one.
func runOne(env Env, w workloads.Workload, nodes int, spec Spec, rec *obs.Recorder, speeds *host.Speeds) (*cluster.Result, error) {
	cfg := cluster.Config{
		Nodes:    nodes,
		Guest:    env.Guest,
		Net:      env.Net,
		Host:     env.Host,
		Speeds:   speeds,
		Policy:   spec.Policy,
		Program:  w.New,
		MaxGuest: env.MaxGuest,
		Faults:   env.Faults,
	}
	// A nil *Recorder or *Profiler must not become a non-nil Observer.
	if rec != nil {
		cfg.Observer = rec
	}
	if env.Profiles != nil {
		label := fmt.Sprintf("%s/%d/%s", w.Name, nodes, spec.Label)
		if env.Faults != nil {
			label += "/faults:" + env.Faults.Key()
		}
		cfg.Observer = obs.Multi(cfg.Observer, env.Profiles.New(label))
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s ×%d %q: %w", w.Name, nodes, spec.Label, err)
	}
	return res, nil
}

// Grid runs every workload × node count × config (plus the ground truth for
// each workload × node count) and returns one Cell per non-baseline run.
// Cells come back in construction order — workload-major, then node count,
// then spec — regardless of Env.Workers.
//
// The runs of one grid share their host speed draws: they have the host seed
// in common and mostly the node ids and jitter windows too, so each draw is
// computed by the first run to need it (host.Speeds). The table lives for
// this call only — like a fresh BaselineCache, every Grid starts cold.
func Grid(env Env, ws []workloads.Workload, nodeCounts []int, specs []Spec) ([]Cell, error) {
	most := 0
	for _, n := range nodeCounts {
		most = max(most, n)
	}
	return grid(env, ws, nodeCounts, specs, host.NewSpeeds(env.Host, most))
}

// grid is Grid over a given table of speed draws; nil computes every draw in
// the run that needs it, which must give the same cells.
func grid(env Env, ws []workloads.Workload, nodeCounts []int, specs []Spec, speeds *host.Speeds) ([]Cell, error) {
	type base struct {
		metric float64
		host   simtime.Duration
	}
	// Ground truths first (they dominate runtime; schedule them all). Each
	// job writes its own slot, so no lock and no completion-order effects.
	bases := make([]base, len(ws)*len(nodeCounts))
	baseIdx := func(wi, ni int) int { return wi*len(nodeCounts) + ni }
	var jobs []job
	for wi, w := range ws {
		for ni, n := range nodeCounts {
			wi, ni, w, n := wi, ni, w, n
			jobs = append(jobs, job{name: fmt.Sprintf("%s/%d", w.Name, n), run: func() error {
				res, err := runGroundTruth(env, w, n, nil, speeds)
				if err != nil {
					return err
				}
				m, ok := res.Metric(w.Metric)
				if !ok {
					return fmt.Errorf("experiments: %s did not report %q", w.Name, w.Metric)
				}
				bases[baseIdx(wi, ni)] = base{metric: m, host: res.HostTime}
				return nil
			}})
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}

	cells := make([]Cell, len(ws)*len(nodeCounts)*len(specs))
	jobs = jobs[:0]
	ci := 0
	for wi, w := range ws {
		for ni, n := range nodeCounts {
			for _, spec := range specs {
				slot, w, n, spec := ci, w, n, spec
				b := bases[baseIdx(wi, ni)]
				jobs = append(jobs, job{name: fmt.Sprintf("%s/%d %s", w.Name, n, spec.Label), run: func() error {
					res, err := runOne(env, w, n, spec, nil, speeds)
					if err != nil {
						return err
					}
					m, _ := res.Metric(w.Metric)
					cells[slot] = Cell{
						Workload:   w.Name,
						Nodes:      n,
						Config:     spec.Label,
						Metric:     m,
						BaseMetric: b.metric,
						AccErr:     metrics.RelError(m, b.metric),
						Speedup:    metrics.Speedup(float64(res.HostTime), float64(b.host)),
						GuestTime:  res.GuestTime,
						HostTime:   res.HostTime,
						Stats:      res.Stats,
					}
					return nil
				}})
				ci++
			}
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return cells, nil
}

// CellKey addresses one cell of an evaluation grid.
type CellKey struct {
	Workload string
	Nodes    int
	Config   string
}

// CellIndex is a constant-time lookup over a grid's cells, for the figure
// formatters that repeatedly pick individual cells out of a large grid.
type CellIndex map[CellKey]*Cell

// IndexCells builds a CellIndex over cells. The index points into the
// slice, so it stays valid as long as the slice is not reallocated.
func IndexCells(cells []Cell) CellIndex {
	idx := make(CellIndex, len(cells))
	for i := range cells {
		c := &cells[i]
		idx[CellKey{c.Workload, c.Nodes, c.Config}] = c
	}
	return idx
}

// Find returns the cell for (workload, nodes, config), or nil.
func (idx CellIndex) Find(workload string, nodes int, config string) *Cell {
	return idx[CellKey{workload, nodes, config}]
}

// GridIndexed runs Grid and returns its cells together with a CellIndex
// over them.
func GridIndexed(env Env, ws []workloads.Workload, nodeCounts []int, specs []Spec) ([]Cell, CellIndex, error) {
	cells, err := Grid(env, ws, nodeCounts, specs)
	if err != nil {
		return nil, nil, err
	}
	return cells, IndexCells(cells), nil
}

// Find returns the cell for (workload, nodes, config), or nil. It scans
// linearly; callers doing repeated lookups should build a CellIndex once
// instead.
func Find(cells []Cell, workload string, nodes int, config string) *Cell {
	for i := range cells {
		c := &cells[i]
		if c.Workload == workload && c.Nodes == nodes && c.Config == config {
			return c
		}
	}
	return nil
}
