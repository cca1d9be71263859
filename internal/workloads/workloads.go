// Package workloads provides the benchmark programs the paper evaluates:
// communication-skeleton models of five NAS Parallel Benchmarks (EP, IS, CG,
// MG, LU) and of NAMD, plus synthetic workloads for unit testing and
// ablations.
//
// Each skeleton reproduces the benchmark's documented compute/communication
// structure (the property the adaptive synchronization algorithm reacts to)
// at a guest-time scale small enough to ground-truth-simulate in seconds.
// The Scale parameter stretches all compute phases proportionally; the
// communication volumes divide across ranks the way the real benchmark's
// data decomposition does. Rank 0 reports the application metric exactly
// like the real benchmarks print MOPS or wall-clock time, and the accuracy
// methodology of the paper compares that self-reported number across
// synchronization configurations.
package workloads

import (
	"clustersim/internal/guest"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// Factory builds the per-rank workload program of a benchmark.
type Factory func(rank, size int) guest.Program

// Workload names a runnable benchmark.
type Workload struct {
	// Name is the benchmark's short name, e.g. "nas.is".
	Name string
	// Key is a complete fingerprint of the workload's behavior: the name
	// plus every parameter that can change a run's outcome. Two Workloads
	// with the same Key produce identical deterministic simulations, which
	// is what lets the experiment layer memoize ground-truth baselines
	// across figures (experiments.BaselineCache). Empty means "no
	// fingerprint" and disables memoization for this workload.
	Key string
	// Metric is the metric key rank 0 reports ("mops" or "walltime_s").
	Metric string
	// New builds the program factory.
	New Factory
}

// jitter spreads a nominal compute duration by a small multiplicative
// lognormal factor so ranks never finish phases in perfect lockstep (real
// applications are never perfectly balanced).
type jitter struct {
	r     *rng.Stream
	sigma float64
}

func newJitter(seed uint64, rank int, sigma float64) *jitter {
	return &jitter{r: rng.New(seed).Split(uint64(rank) + 0x9e37), sigma: sigma}
}

func (j *jitter) dur(d simtime.Duration) simtime.Duration {
	if j.sigma <= 0 || d <= 0 {
		return d
	}
	return d.Scale(j.r.LogNormal(-j.sigma*j.sigma/2, j.sigma))
}

// perRank divides a serial duration across size ranks.
func perRank(serial simtime.Duration, size int) simtime.Duration {
	return simtime.Duration(int64(serial) / int64(size))
}

// seconds converts a guest duration to float seconds for metric reporting.
func seconds(d simtime.Duration) float64 { return d.Seconds() }
