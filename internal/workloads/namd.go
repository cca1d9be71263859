package workloads

import (
	"fmt"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/msg"
	"clustersim/internal/simtime"
)

// NAMDParams configures the molecular-dynamics skeleton modelled on NAMD's
// apoa1 benchmark: a timestep loop in which every rank exchanges coordinate
// and force messages with a fixed neighbour set each step, reduces energies
// every step, and performs a PME transpose (alltoall) periodically. The
// defining property for the paper is the *density* of traffic: at scale
// there is "no visible interval where the application is not exchanging
// data over the network" (Figure 9(c)), which caps the achievable quantum.
type NAMDParams struct {
	// Steps is the number of MD timesteps.
	Steps int
	// SerialComputePerStep is the single-rank force-evaluation time per
	// step; each rank computes 1/size of it.
	SerialComputePerStep simtime.Duration
	// Neighbors is the number of ranks each rank exchanges patch data with
	// per step (capped at size-1).
	Neighbors int
	// CoordBytes is the per-neighbour coordinate/force message size.
	CoordBytes int
	// PMEEvery is the period (in steps) of the PME transpose; 0 disables.
	PMEEvery int
	// PMEBytes is the total PME grid volume; each pair exchanges
	// PMEBytes/size².
	PMEBytes int
	// Imbalance is per-step per-rank compute jitter (MD patches are never
	// balanced).
	Imbalance float64
	Seed      uint64
}

// DefaultNAMD returns the NAMD configuration used by the paper-reproduction
// experiments.
func DefaultNAMD() NAMDParams {
	return NAMDParams{
		Steps:                48,
		SerialComputePerStep: 96 * simtime.Millisecond,
		Neighbors:            8,
		CoordBytes:           24 << 10,
		PMEEvery:             4,
		PMEBytes:             4 << 20,
		Imbalance:            0.08,
		Seed:                 29,
	}
}

// NAMD builds the molecular-dynamics benchmark. The reported metric is the
// wall-clock time of the run, which is what NAMD prints and what the paper
// uses for its accuracy comparison.
func NAMD(p NAMDParams) Workload {
	return Workload{
		Name:   "namd",
		Key:    fmt.Sprintf("namd|%+v", p),
		Metric: "walltime_s",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				start := pr.Now()

				nb := p.Neighbors
				if nb > size-1 {
					nb = size - 1
				}
				// A fixed neighbour set around the rank ring: the spatial
				// decomposition's patch neighbours.
				neighbors := make([]int, 0, nb)
				for i := 1; i <= nb; i++ {
					var d int
					if i%2 == 1 {
						d = (i + 1) / 2
					} else {
						d = -i / 2
					}
					neighbors = append(neighbors, ((rank+d)%size+size)%size)
				}

				for s := 0; s < p.Steps; s++ {
					// Ship coordinates to the neighbour patches, then wait
					// for theirs.
					for _, n := range neighbors {
						c.Send(n, 400, p.CoordBytes)
					}
					for range neighbors {
						c.Recv(msg.Any, 400)
					}
					// Force evaluation.
					pr.Compute(j.dur(perRank(p.SerialComputePerStep, size)))
					// PME long-range electrostatics: grid transpose.
					if p.PMEEvery > 0 && s%p.PMEEvery == p.PMEEvery-1 {
						c.Alltoall(p.PMEBytes / (size * size))
					}
					// Reduce energies for the integrator.
					c.Allreduce(48)
				}
				elapsed := pr.Now().Sub(start)
				if rank == 0 {
					pr.Report("walltime_s", seconds(elapsed))
					pr.Report("days_per_ns", seconds(elapsed)/86400*1e6)
				}
				return nil
			}
		},
	}
}
