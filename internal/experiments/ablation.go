package experiments

import (
	"strconv"

	"clustersim/internal/metrics"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// AblationRow is one configuration of a sensitivity sweep.
type AblationRow struct {
	Label   string
	AccErr  float64
	Speedup float64
	MeanQ   simtime.Duration
}

// AblationIncDec sweeps Algorithm 1's increase and decrease factors on one
// workload, quantifying the paper's §3 guidance that "the best
// configurations are those that grow the quantum in very small increments
// (such as 2% to 5%) but decrease it very quickly".
func AblationIncDec(env Env, w workloads.Workload, nodes int, incs, decs []float64) ([]AblationRow, error) {
	base, err := runGroundTruth(env, w, nodes, nil, nil)
	if err != nil {
		return nil, err
	}
	baseMetric, _ := base.Metric(w.Metric)

	out := make([]AblationRow, len(incs)*len(decs))
	var jobs []job
	for i, inc := range incs {
		for d, dec := range decs {
			ri, inc, dec := i*len(decs)+d, inc, dec
			spec := DynSpec(
				// Label like "1.03:0.02".
				formatIncDec(inc, dec),
				1*simtime.Microsecond, 1000*simtime.Microsecond, inc, dec,
			)
			jobs = append(jobs, job{name: spec.Label, run: func() error {
				res, err := runOne(env, w, nodes, spec, nil, nil)
				if err != nil {
					return err
				}
				m, _ := res.Metric(w.Metric)
				out[ri] = AblationRow{
					Label:   spec.Label,
					AccErr:  metrics.RelError(m, baseMetric),
					Speedup: metrics.Speedup(float64(res.HostTime), float64(base.HostTime)),
					MeanQ:   res.Stats.MeanQ,
				}
				return nil
			}})
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

func formatIncDec(inc, dec float64) string {
	return trim(inc) + ":" + trim(dec)
}

func trim(f float64) string {
	return strconv.FormatFloat(f, 'g', 3, 64)
}

// AblationHost sweeps the host model's barrier cost and jitter on one
// workload and reports the ground-truth-relative speedup of a large fixed
// quantum — showing which host property the synchronization overhead (the
// paper's Figure 5) actually comes from.
type HostAblationRow struct {
	Label       string
	BarrierCost simtime.Duration
	Jitter      float64
	// Speedup1k is the speedup of Q=1000µs over Q=1µs under this host.
	Speedup1k float64
}

// AblationOracle compares Algorithm 1 against the perfect-lookahead Oracle
// (DESIGN A4): the Oracle knows every future send instant (taken from a
// traced ground-truth run) and is the upper bound of any traffic-driven
// quantum scheme. The paper argues such lookahead is unobtainable in
// full-system simulation; this sweep quantifies how much of the oracle's
// speedup the blind adaptive algorithm recovers.
func AblationOracle(env Env, w workloads.Workload, nodes int, min, max simtime.Duration) ([]AblationRow, error) {
	// The traced baseline is the ground truth itself (Q = 1µs), so it comes
	// from the shared cache, recorded.
	var rec obs.Recorder
	base, err := runGroundTruth(env, w, nodes, &rec, nil)
	if err != nil {
		return nil, err
	}
	baseMetric, _ := base.Metric(w.Metric)
	sendTimes := make([]simtime.Guest, 0, len(rec.Packets))
	for _, p := range rec.Packets {
		sendTimes = append(sendTimes, p.SendGuest)
	}

	specs := []Spec{
		DynSpec("dyn 1.03:0.02", min, max, 1.03, 0.02),
		DynSpec("dyn 1.05:0.02", min, max, 1.05, 0.02),
		{Label: "oracle", Policy: func() quantum.Policy { return quantum.NewOracle(min, max, sendTimes) }},
	}
	rows := make([]AblationRow, len(specs))
	var jobs []job
	for i, spec := range specs {
		i, spec := i, spec
		jobs = append(jobs, job{name: spec.Label, run: func() error {
			res, err := runOne(env, w, nodes, spec, nil, nil)
			if err != nil {
				return err
			}
			m, _ := res.Metric(w.Metric)
			rows[i] = AblationRow{
				Label:   spec.Label,
				AccErr:  metrics.RelError(m, baseMetric),
				Speedup: metrics.Speedup(float64(res.HostTime), float64(base.HostTime)),
				MeanQ:   res.Stats.MeanQ,
			}
			return nil
		}})
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationHost runs the host-parameter sensitivity sweep.
func AblationHost(env Env, w workloads.Workload, nodes int, barriers []simtime.Duration, jitters []float64) ([]HostAblationRow, error) {
	out := make([]HostAblationRow, len(barriers)*len(jitters))
	var jobs []job
	for bi, bc := range barriers {
		for ji, jit := range jitters {
			ri, bc, jit := bi*len(jitters)+ji, bc, jit
			jobs = append(jobs, job{name: bc.String(), run: func() error {
				e := env
				e.Host.BarrierCost = bc
				e.Host.JitterSigma = jit
				base, err := runGroundTruth(e, w, nodes, nil, nil)
				if err != nil {
					return err
				}
				big, err := runOne(e, w, nodes, FixedSpec("1k", 1000*simtime.Microsecond), nil, nil)
				if err != nil {
					return err
				}
				out[ri] = HostAblationRow{
					Label:       "barrier=" + bc.String() + " σ=" + trim(jit),
					BarrierCost: bc,
					Jitter:      jit,
					Speedup1k:   metrics.Speedup(float64(big.HostTime), float64(base.HostTime)),
				}
				return nil
			}})
		}
	}
	if err := runAll(env.Workers, jobs); err != nil {
		return nil, err
	}
	return out, nil
}
