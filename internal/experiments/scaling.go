package experiments

import (
	"clustersim/internal/metrics"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// ScalingRow is one node count of the scaling curve.
type ScalingRow struct {
	Nodes int
	// AccErr/Speedup are the adaptive configuration versus that node
	// count's own ground truth.
	AccErr  float64
	Speedup float64
	// MeanQ is the quantum the adaptive algorithm settled on.
	MeanQ simtime.Duration
	// PacketsPerGuestMS measures traffic density: frames routed per
	// simulated millisecond — the quantity that caps the quantum.
	PacketsPerGuestMS float64
}

// ScalingCurve extends the paper's conclusion ("in some experiments
// simulating larger clusters the effectiveness of the algorithm somewhat
// diminishes as we can expect due to the increase in overall traffic
// density") into a measured curve: the adaptive configuration's speedup,
// accuracy and settled quantum as the cluster grows.
func ScalingCurve(env Env, w workloads.Workload, nodeCounts []int, spec Spec) ([]ScalingRow, error) {
	rows := make([]ScalingRow, len(nodeCounts))
	var jobs []job
	for i, n := range nodeCounts {
		i, n := i, n
		jobs = append(jobs, job{name: w.Name, run: func() error {
			base, err := runGroundTruth(env, w, n, nil, nil)
			if err != nil {
				return err
			}
			res, err := runOne(env, w, n, spec, nil, nil)
			if err != nil {
				return err
			}
			baseMetric, _ := base.Metric(w.Metric)
			m, _ := res.Metric(w.Metric)
			rows[i] = ScalingRow{
				Nodes:   n,
				AccErr:  metrics.RelError(m, baseMetric),
				Speedup: metrics.Speedup(float64(res.HostTime), float64(base.HostTime)),
				MeanQ:   res.Stats.MeanQ,
				PacketsPerGuestMS: float64(res.Stats.Packets) /
					(float64(res.GuestTime) / float64(simtime.Millisecond)),
			}
			return nil
		}})
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return rows, nil
}
