package workloads

import (
	"fmt"
	"math/bits"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/simtime"
)

// EPParams configures the Embarrassingly Parallel kernel: long independent
// compute with a few small reductions at the very end ("requires little
// interprocessor communication").
type EPParams struct {
	// SerialCompute is the total single-rank compute time; each rank
	// executes SerialCompute/size.
	SerialCompute simtime.Duration
	// Blocks is how many chunks each rank's compute is split into.
	Blocks int
	// MOps is the nominal operation count, in millions, for the MOPS
	// metric.
	MOps float64
	// Imbalance is the per-block lognormal sigma of compute jitter.
	Imbalance float64
	// Seed drives the compute jitter.
	Seed uint64
}

// DefaultEP returns the EP configuration used by the paper-reproduction
// experiments.
func DefaultEP() EPParams {
	return EPParams{
		SerialCompute: 2 * simtime.Second,
		Blocks:        128,
		MOps:          2416, // 2^28 pairs × ~9 ops, in millions
		Imbalance:     0.03,
		Seed:          11,
	}
}

// EP builds the Embarrassingly Parallel benchmark.
func EP(p EPParams) Workload {
	return Workload{
		Name:   "nas.ep",
		Key:    fmt.Sprintf("nas.ep|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				// Startup handshake (MPI_Init + timer synchronization).
				c.Barrier()
				start := pr.Now()
				per := perRank(p.SerialCompute, size) / simtime.Duration(p.Blocks)
				for b := 0; b < p.Blocks; b++ {
					pr.Compute(j.dur(per))
				}
				// Three small reductions: sums sx/sy and the ten Gaussian
				// deviate counts.
				c.Allreduce(16)
				c.Allreduce(16)
				c.Allreduce(80)
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

// ISParams configures the Integer Sort kernel: a bucketed counting sort
// whose every iteration performs an all-to-all key exchange — the paper's
// accuracy worst case ("fine-grain synchronization nature ... MPI_alltoall
// causes long chains of packet dependences").
type ISParams struct {
	// Iterations is the number of ranking iterations.
	Iterations int
	// SerialComputePerIter is the single-rank local ranking time per
	// iteration; each rank does 1/size of it.
	SerialComputePerIter simtime.Duration
	// TotalKeyBytes is the total key volume redistributed per iteration;
	// each rank pair exchanges TotalKeyBytes/size².
	TotalKeyBytes int
	// MOps is the nominal operation count in millions.
	MOps      float64
	Imbalance float64
	Seed      uint64
}

// DefaultIS returns the IS configuration used by the paper-reproduction
// experiments.
func DefaultIS() ISParams {
	return ISParams{
		Iterations:           10,
		SerialComputePerIter: 120 * simtime.Millisecond,
		TotalKeyBytes:        32 << 20, // 2^23 4-byte keys, counted and sized
		MOps:                 84,
		Imbalance:            0.04,
		Seed:                 13,
	}
}

// IS builds the Integer Sort benchmark.
func IS(p ISParams) Workload {
	return Workload{
		Name:   "nas.is",
		Key:    fmt.Sprintf("nas.is|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				start := pr.Now()
				pair := p.TotalKeyBytes / (size * size)
				for it := 0; it < p.Iterations; it++ {
					// Local bucket counting.
					pr.Compute(j.dur(perRank(p.SerialComputePerIter, size)))
					// Bucket-size exchange then the key redistribution.
					c.Allreduce(8 * size)
					c.Alltoall(pair)
					// Partial verification.
					c.Allreduce(40)
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

// CGParams configures the Conjugate Gradient kernel: repeated sparse
// matrix-vector products with "irregular long distance communication" —
// partner exchanges across log2(size) hypercube dimensions plus two dot
// product reductions per inner iteration.
type CGParams struct {
	// OuterIters and InnerIters shape the solver loop (NAS CG runs 15 outer
	// iterations of a 25-step CG solve).
	OuterIters, InnerIters int
	// SerialComputePerInner is the single-rank matvec time per inner step.
	SerialComputePerInner simtime.Duration
	// VectorBytes is the full exchanged vector; each partner exchange
	// carries VectorBytes/size.
	VectorBytes int
	MOps        float64
	Imbalance   float64
	Seed        uint64
}

// DefaultCG returns the CG configuration used by the paper-reproduction
// experiments.
func DefaultCG() CGParams {
	return CGParams{
		OuterIters:            4,
		InnerIters:            10,
		SerialComputePerInner: 96 * simtime.Millisecond,
		VectorBytes:           1200 << 10,
		MOps:                  1500,
		Imbalance:             0.04,
		Seed:                  17,
	}
}

// CG builds the Conjugate Gradient benchmark.
func CG(p CGParams) Workload {
	return Workload{
		Name:   "nas.cg",
		Key:    fmt.Sprintf("nas.cg|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				start := pr.Now()
				dims := bits.Len(uint(size)) - 1
				exch := p.VectorBytes / size
				for o := 0; o < p.OuterIters; o++ {
					for i := 0; i < p.InnerIters; i++ {
						pr.Compute(j.dur(perRank(p.SerialComputePerInner, size)))
						// Hypercube transpose exchanges (irregular, long
						// distance in rank space).
						for d := 0; d < dims; d++ {
							partner := rank ^ (1 << d)
							if partner < size {
								c.Sendrecv(partner, 100+d, exch)
							}
						}
						// Two dot products.
						c.Allreduce(8)
						c.Allreduce(8)
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

// MGParams configures the Multi-Grid kernel: V-cycles over a level
// hierarchy, each level exchanging halo faces with neighbours ("both short
// and long distance highly structured communication").
type MGParams struct {
	// Iterations is the number of V-cycles.
	Iterations int
	// Levels is the depth of the grid hierarchy.
	Levels int
	// SerialComputeFinest is the single-rank compute on the finest level;
	// each coarser level costs 1/8 of the previous (3-D halving).
	SerialComputeFinest simtime.Duration
	// HaloBytesFinest is the per-neighbour halo size on the finest level,
	// halving per level. It divides by size^(2/3)-ish via the face rule
	// below.
	HaloBytesFinest int
	MOps            float64
	Imbalance       float64
	Seed            uint64
}

// DefaultMG returns the MG configuration used by the paper-reproduction
// experiments.
func DefaultMG() MGParams {
	return MGParams{
		Iterations:          4,
		Levels:              6,
		SerialComputeFinest: 120 * simtime.Millisecond,
		HaloBytesFinest:     1 << 20,
		MOps:                3900,
		Imbalance:           0.04,
		Seed:                19,
	}
}

// MG builds the Multi-Grid benchmark.
func MG(p MGParams) Workload {
	return Workload{
		Name:   "nas.mg",
		Key:    fmt.Sprintf("nas.mg|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				start := pr.Now()
				dims := bits.Len(uint(size)) - 1

				level := func(l int) {
					comp := perRank(p.SerialComputeFinest, size) >> uint(3*l)
					if comp < simtime.Microsecond {
						comp = simtime.Microsecond
					}
					pr.Compute(j.dur(comp))
					halo := p.HaloBytesFinest >> uint(l)
					halo /= size
					if halo < 64 {
						halo = 64
					}
					// Exchange faces with the hypercube neighbours: the
					// 3-D decomposition's short- and long-distance pattern.
					for d := 0; d < dims; d++ {
						partner := rank ^ (1 << d)
						if partner < size {
							c.Sendrecv(partner, 200+d, halo)
						}
					}
				}

				for it := 0; it < p.Iterations; it++ {
					// Down-sweep to the coarsest level and back up.
					for l := 0; l < p.Levels; l++ {
						level(l)
					}
					for l := p.Levels - 2; l >= 0; l-- {
						level(l)
					}
					// Residual norm.
					c.Allreduce(8)
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

// LUParams configures the LU kernel: an SSOR solver whose wavefront pipeline
// sends many small messages between neighbouring ranks ("a limited amount of
// parallelism ... a good indicator of network latency").
type LUParams struct {
	// Steps is the number of SSOR time steps.
	Steps int
	// BlocksPerStep is the pipeline depth per step (k-planes per sweep).
	BlocksPerStep int
	// SerialComputePerStep is the single-rank compute per step; it divides
	// across ranks and across blocks.
	SerialComputePerStep simtime.Duration
	// FaceBytes is the per-block boundary message; LU's messages are small.
	FaceBytes int
	MOps      float64
	Imbalance float64
	Seed      uint64
}

// DefaultLU returns the LU configuration used by the paper-reproduction
// experiments.
func DefaultLU() LUParams {
	return LUParams{
		Steps:                12,
		BlocksPerStep:        6,
		SerialComputePerStep: 24 * simtime.Millisecond,
		FaceBytes:            3 << 10,
		MOps:                 64000,
		Imbalance:            0.03,
		Seed:                 23,
	}
}

// LU builds the LU benchmark: each step runs a forward wavefront down the
// rank pipeline and a backward wavefront up it, block by block.
func LU(p LUParams) Workload {
	return Workload{
		Name:   "nas.lu",
		Key:    fmt.Sprintf("nas.lu|%+v", p),
		Metric: "mops",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				c := mpi.New(pr)
				j := newJitter(p.Seed, rank, p.Imbalance)
				start := pr.Now()
				block := perRank(p.SerialComputePerStep, size) / simtime.Duration(p.BlocksPerStep)

				for s := 0; s < p.Steps; s++ {
					// Forward sweep: the wavefront flows rank 0 → size-1.
					for b := 0; b < p.BlocksPerStep; b++ {
						if rank > 0 {
							c.Recv(rank-1, 300)
						}
						pr.Compute(j.dur(block))
						if rank < size-1 {
							c.Send(rank+1, 300, p.FaceBytes)
						}
					}
					// Backward sweep: size-1 → 0.
					for b := 0; b < p.BlocksPerStep; b++ {
						if rank < size-1 {
							c.Recv(rank+1, 301)
						}
						pr.Compute(j.dur(block))
						if rank > 0 {
							c.Send(rank-1, 301, p.FaceBytes)
						}
					}
					// Residual every few steps.
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
