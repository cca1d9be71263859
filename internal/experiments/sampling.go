package experiments

import (
	"clustersim/internal/cluster"
	"clustersim/internal/host"
	"clustersim/internal/metrics"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// SamplingRow is one configuration of the sampling-combination study.
type SamplingRow struct {
	Label string
	// Sampled reports whether the node simulators fast-forwarded between
	// detail samples.
	Sampled bool
	// AccErr and Speedup are versus the unsampled ground truth.
	AccErr  float64
	Speedup float64
}

// SamplingStudy demonstrates the paper's §7 future-work proposal: "combine
// this technique with 'sampling' of the individual node simulators to take
// further advantage of another accuracy/speed tradeoff. We believe that the
// combination of these techniques will open up a much wider application
// space". It runs the workload under ground truth and the adaptive quantum,
// each with and without a sampled host (10% detail, fast functional
// emulation otherwise), all compared against the unsampled ground truth.
func SamplingStudy(env Env, w workloads.Workload, nodes int, s host.Sampling) ([]SamplingRow, error) {
	base, err := runGroundTruth(env, w, nodes, nil, nil)
	if err != nil {
		return nil, err
	}
	baseMetric, _ := base.Metric(w.Metric)

	adaptive := DynSpec("dyn 1k 1.03:0.02", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02)
	type cfg struct {
		label   string
		spec    Spec
		sampled bool
	}
	cfgs := []cfg{
		{"Q=1µs", GroundTruth(), false},
		{"Q=1µs + sampling", GroundTruth(), true},
		{"adaptive", adaptive, false},
		{"adaptive + sampling", adaptive, true},
	}
	var rows []SamplingRow
	for _, c := range cfgs {
		e := env
		if c.sampled {
			samp := s
			e.Host.Sampling = &samp
		}
		var res *cluster.Result
		if !c.sampled && c.label == "Q=1µs" {
			// The unsampled ground-truth row is the baseline itself; rerunning
			// it would only reproduce the same deterministic result.
			res = base
		} else {
			var err error
			res, err = runOne(e, w, nodes, c.spec, nil, nil)
			if err != nil {
				return nil, err
			}
		}
		m, _ := res.Metric(w.Metric)
		rows = append(rows, SamplingRow{
			Label:   c.label,
			Sampled: c.sampled,
			AccErr:  metrics.RelError(m, baseMetric),
			Speedup: metrics.Speedup(float64(res.HostTime), float64(base.HostTime)),
		})
	}
	return rows, nil
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
