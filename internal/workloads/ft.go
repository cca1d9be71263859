package workloads

import (
	"fmt"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/simtime"
)

// FTParams configures the FT kernel (3-D FFT), an addition beyond the
// paper's five selected kernels: like IS it is built around MPI_alltoall,
// but with bulk transposes of the whole grid rather than fine-grained key
// exchanges — large rendezvous transfers separated by substantial local FFT
// compute. It stresses the synchronization layer's bandwidth path where IS
// stresses its latency path.
type FTParams struct {
	// Iterations is the number of FFT evolve/checksum iterations.
	Iterations int
	// SerialComputePerIter is the single-rank FFT time per iteration.
	SerialComputePerIter simtime.Duration
	// GridBytes is the total grid volume transposed per iteration; each
	// rank pair exchanges GridBytes/size².
	GridBytes int
	// MOps is the nominal operation count in millions.
	MOps      float64
	Imbalance float64
	Seed      uint64
}

// DefaultFT returns the FT configuration used by the extension experiments.
func DefaultFT() FTParams {
	return FTParams{
		Iterations:           6,
		SerialComputePerIter: 200 * simtime.Millisecond,
		GridBytes:            128 << 20,
		MOps:                 7100,
		Imbalance:            0.03,
		Seed:                 31,
	}
}

// FT builds the 3-D FFT benchmark.
func FT(p FTParams) Workload {
	return Workload{
		Name:   "nas.ft",
		Key:    fmt.Sprintf("nas.ft|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				c.Barrier()
				start := pr.Now()
				pair := p.GridBytes / (size * size)
				for it := 0; it < p.Iterations; it++ {
					// Local 1-D FFTs along the in-memory dimensions.
					pr.Compute(j.dur(perRank(p.SerialComputePerIter, size) / 2))
					// Global transpose: the defining alltoall.
					c.Alltoall(pair)
					// FFT along the redistributed dimension + evolve.
					pr.Compute(j.dur(perRank(p.SerialComputePerIter, size) / 2))
					// Checksum reduction.
					c.Allreduce(16)
				}
				elapsed := pr.Now().Sub(start)
				if rank == 0 {
					pr.Report("mops", p.MOps/seconds(elapsed))
					pr.Report("time_s", seconds(elapsed))
				}
				return nil
			}
		},
	}
}
