package experiments

import (
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// OptimisticParams models the checkpoint/rollback machinery of an
// optimistic (Time-Warp-style) PDES alternative, using the paper's §3
// estimates: saving or restoring a full-system node image (machine memory
// plus disk journal) takes 30–40 seconds of host time.
type OptimisticParams struct {
	// CheckpointCost is the host time to save one node checkpoint.
	CheckpointCost simtime.Duration
	// RestoreCost is the host time to roll a node back to its last
	// checkpoint.
	RestoreCost simtime.Duration
	// CheckpointPeriod is the guest time between checkpoints; rolled-back
	// work averages half a period and must be re-simulated.
	CheckpointPeriod simtime.Duration
}

// PaperOptimistic returns the paper's stated costs ("a single
// checkpointing-rollback phase for a node can easily last in the order of
// 30-40 seconds").
func PaperOptimistic() OptimisticParams {
	return OptimisticParams{
		CheckpointCost:   30 * simtime.Second,
		RestoreCost:      35 * simtime.Second,
		CheckpointPeriod: 100 * simtime.Millisecond,
	}
}

// OptimisticRow compares one quantum configuration against a hypothetical
// optimistic simulator that lets nodes free-run and rolls back on every
// straggler.
type OptimisticRow struct {
	Config string
	// QuantumHost is the measured host time of the quantum-synchronized
	// run.
	QuantumHost simtime.Duration
	// Stragglers is the measured straggler count — each would have been a
	// rollback in an optimistic scheme running at this synchronization
	// slack.
	Stragglers int
	// OptimisticHost estimates the optimistic run: the free-running
	// simulation (the Q-max run's compute, barrier-free) plus checkpoint
	// and rollback costs.
	OptimisticHost simtime.Duration
	// Ratio is OptimisticHost / QuantumHost: above 1 means the paper's
	// conservative choice wins.
	Ratio float64
}

// OptimisticEstimate reproduces the paper's §3 argument quantitatively: it
// runs the workload under the given quantum configurations, counts the
// stragglers each experienced (the events an optimistic scheme would have
// had to roll back), and prices the optimistic alternative with op's
// checkpoint model.
func OptimisticEstimate(env Env, w workloads.Workload, nodes int, specs []Spec, op OptimisticParams) ([]OptimisticRow, error) {
	var rows []OptimisticRow
	for _, spec := range specs {
		res, err := runOne(env, w, nodes, spec, nil, nil)
		if err != nil {
			return nil, err
		}
		// The optimistic baseline execution: no barriers at all, every node
		// free-runs (the busy work is the same; the barrier overhead
		// disappears). Approximate it as the measured host time minus the
		// per-quantum barrier costs.
		barriers := simtime.Duration(res.Stats.Quanta) * env.Host.BarrierCost
		free := res.HostTime - barriers
		if free < 0 {
			free = 0
		}
		// Checkpointing: every node saves one image per CheckpointPeriod of
		// guest time (they proceed in parallel, so the run pays the cost
		// once per period, not per node).
		nCheckpoints := int64(res.GuestTime) / int64(op.CheckpointPeriod)
		checkpointing := simtime.Duration(nCheckpoints) * op.CheckpointCost
		// Rollbacks: each straggler forces a restore plus re-simulation of
		// on average half a checkpoint period of guest time.
		resim := op.CheckpointPeriod.Scale(0.5 * env.Host.BusySlowdown)
		rollbacks := simtime.Duration(res.Stats.Stragglers) * (simtime.Duration(op.RestoreCost) + resim)
		opt := free + checkpointing + rollbacks

		rows = append(rows, OptimisticRow{
			Config:         spec.Label,
			QuantumHost:    res.HostTime,
			Stragglers:     res.Stats.Stragglers,
			OptimisticHost: opt,
			Ratio:          float64(opt) / float64(res.HostTime),
		})
	}
	return rows, nil
}
