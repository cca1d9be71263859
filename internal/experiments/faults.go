package experiments

import (
	"clustersim/internal/cluster"
	"clustersim/internal/faults"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// FaultRow is one (loss rate, config) point of the fault sweep: how a
// synchronization policy behaves as the network degrades.
type FaultRow struct {
	// LossPct is the injected per-frame loss probability in percent.
	LossPct float64
	Config  string
	// MeanQ is the mean quantum the policy settled on. Retransmission
	// timers under loss add traffic, which holds an adaptive policy's
	// quantum down while a fixed policy is unaffected.
	MeanQ simtime.Duration
	// StragglerRate is stragglers per delivered frame.
	StragglerRate float64
	// Dropped/Duplicated echo the run's fault counters.
	Dropped    int
	Duplicated int
	// Retransmits/Timeouts sum the reliable transport's counters over all
	// ranks (zero unless the workload runs reliable endpoints and calls
	// ReportMetrics).
	Retransmits int
	Timeouts    int
	GuestTime   simtime.Guest
	HostTime    simtime.Duration
}

// sumMetric totals one reported metric over every rank of a run.
func sumMetric(res *cluster.Result, name string) int {
	total := 0.0
	for _, m := range res.Metrics {
		total += m[name]
	}
	return int(total)
}

// FaultSweep runs one workload × node count under each spec while the
// default link's loss probability sweeps through lossPcts (percent). Loss 0
// uses a nil plan — the engine's zero-cost fault-free path. The workload
// should run the reliable transport (e.g. workloads.ReliablePhases) so it
// completes under loss and reports retransmission counters; the sweep is the
// paper-style behavioural comparison of adaptive versus fixed quanta on a
// degrading network.
func FaultSweep(env Env, w workloads.Workload, nodes int, specs []Spec, lossPcts []float64, seed uint64) ([]FaultRow, error) {
	rows := make([]FaultRow, len(lossPcts)*len(specs))
	var jobs []func() error
	for li, pct := range lossPcts {
		fenv := env
		if pct > 0 {
			fenv.Faults = &faults.Plan{Seed: seed, Default: faults.Link{Loss: pct / 100}}
		} else {
			fenv.Faults = nil
		}
		for si, spec := range specs {
			slot, spec, fenv, pct := li*len(specs)+si, spec, fenv, pct
			jobs = append(jobs, func() error {
				res, err := runOne(fenv, w, nodes, spec, nil, nil)
				if err != nil {
					return err
				}
				row := FaultRow{
					LossPct:     pct,
					Config:      spec.Label,
					MeanQ:       res.Stats.MeanQ,
					Dropped:     res.Stats.Dropped,
					Duplicated:  res.Stats.Duplicated,
					Retransmits: sumMetric(res, "msg_retransmits"),
					Timeouts:    sumMetric(res, "msg_timeouts"),
					GuestTime:   res.GuestTime,
					HostTime:    res.HostTime,
				}
				if res.Stats.Deliveries > 0 {
					row.StragglerRate = float64(res.Stats.Stragglers) / float64(res.Stats.Deliveries)
				}
				rows[slot] = row
				return nil
			})
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return rows, nil
}
