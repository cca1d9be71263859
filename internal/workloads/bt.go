package workloads

import (
	"fmt"
	"math"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/simtime"
)

// BTParams configures the BT kernel (block-tridiagonal solver), an addition
// beyond the paper's five selected kernels — the paper notes it selected
// only the benchmarks that "could run for 2, 4 and 8-node clusters", and BT
// requires a square process grid. Each timestep runs line solves pipelined
// along the rows and then the columns of a √N×√N grid of world ranks.
type BTParams struct {
	// Steps is the number of ADI timesteps.
	Steps int
	// SerialComputePerStep is the single-rank compute per step across the
	// three directional sweeps.
	SerialComputePerStep simtime.Duration
	// FaceBytes is the per-hop boundary message of a sweep.
	FaceBytes int
	// MOps is the nominal operation count in millions.
	MOps      float64
	Imbalance float64
	Seed      uint64
}

// DefaultBT returns the BT configuration used by the extension experiments.
func DefaultBT() BTParams {
	return BTParams{
		Steps:                10,
		SerialComputePerStep: 60 * simtime.Millisecond,
		FaceBytes:            20 << 10,
		MOps:                 168000,
		Imbalance:            0.04,
		Seed:                 37,
	}
}

// BT builds the block-tridiagonal benchmark. The cluster size must be a
// perfect square (1, 4, 9, 16, …); the run fails otherwise, mirroring the
// real benchmark's constraint.
func BT(p BTParams) Workload {
	return Workload{
		Name:           "nas.bt",
		Key:            fmt.Sprintf("nas.bt|%+v", p),
		Metric:         "mops",
		HigherIsBetter: true,
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				side := int(math.Round(math.Sqrt(float64(size))))
				if side*side != size {
					return fmt.Errorf("nas.bt needs a square process grid, got %d ranks", size)
				}
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				row, col := rank/side, rank%side

				rowRanks := make([]int, side)
				colRanks := make([]int, side)
				for i := 0; i < side; i++ {
					rowRanks[i] = row*side + i
					colRanks[i] = i*side + col
				}

				// sweep runs a forward+backward line solve pipelined along
				// ranks, in which this rank stands at index me, charging
				// compute per cell.
				sweep := func(ranks []int, me, tag int, cell simtime.Duration) {
					n := len(ranks)
					// Forward substitution.
					if me > 0 {
						c.Sendrecv(ranks[me-1], tag, 0) // handshake stands in for Recv-only
					}
					pr.Compute(j.dur(cell))
					if me < n-1 {
						c.Sendrecv(ranks[me+1], tag, p.FaceBytes)
					}
					// Backward substitution.
					if me < n-1 {
						c.Sendrecv(ranks[me+1], tag+1, 0)
					}
					pr.Compute(j.dur(cell))
					if me > 0 {
						c.Sendrecv(ranks[me-1], tag+1, p.FaceBytes)
					}
				}

				c.Barrier()
				start := pr.Now()
				cell := perRank(p.SerialComputePerStep, size) / 6
				for s := 0; s < p.Steps; s++ {
					sweep(rowRanks, col, 500, cell) // x direction
					sweep(colRanks, row, 502, cell) // y direction
					// z direction is within-rank.
					pr.Compute(j.dur(cell * 2))
					if s%5 == 4 {
						c.Allreduce(40)
					}
				}
				c.Barrier()
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
