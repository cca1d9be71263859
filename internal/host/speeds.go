package host

import (
	"math"
	"sync/atomic"
)

// The table's shape. A chunk is 8 KiB of multipliers and a node has at most
// speedsChunks of them, so a Speeds never holds more than speedsNodes ×
// speedsChunks × 8 KiB = 32 MiB plus its 8-byte-per-chunk index, and holds
// only the chunks some run has reached. At the default 10µs JitterPeriod the
// horizon is 655 ms of guest time; a window or a node past the bounds is
// drawn afresh each time a model asks, as without a table.
const (
	speedsChunkLen = 1024 // windows per chunk
	speedsChunks   = 64   // chunks per node
	speedsNodes    = 64   // nodes with an index
)

// speedChunk holds the multipliers of speedsChunkLen consecutive windows of
// one node as float bits; zero is "not drawn yet" (no multiplier is 0: the
// lognormal is positive, and one that underflows to 0 is merely redrawn).
type speedChunk [speedsChunkLen]atomic.Uint64

// Speeds is a write-once table of speed multipliers shared by the models of
// one sweep. A multiplier is a pure function of (Seed, JitterSigma, node,
// window) and the simulations of a sweep mostly share all four, so the first
// model to need a draw computes and publishes its aligned block of drawBlock
// windows and the others read it.
// Whoever computes it computes the same bits, which is why racing fills need
// no lock, why a reader can never observe anything but the draw itself, and
// why results are bit-identical with and without a table.
//
// Safe for concurrent use. A Speeds serves one (Seed, JitterSigma); models
// configured otherwise ignore it (Model.Share).
type Speeds struct {
	seed  uint64
	sigma float64
	// index is node-major: node i's chunk c is index[i*speedsChunks+c], nil
	// until a model first draws in it.
	index []atomic.Pointer[speedChunk]
}

// NewSpeeds returns an empty table for the draws of p on a cluster of up to
// nodes nodes.
func NewSpeeds(p Params, nodes int) *Speeds {
	return &Speeds{
		seed:  p.Seed,
		sigma: p.JitterSigma,
		index: make([]atomic.Pointer[speedChunk], min(nodes, speedsNodes)*speedsChunks),
	}
}

// An aligned block of drawBlock windows never straddles two chunks.
const _ uint = -(speedsChunkLen % drawBlock)

// fill writes the multipliers of node's windows w0, w0+1, … into out, which
// lies inside one aligned block of drawBlock windows: the published draws,
// or fresh ones. A miss draws the whole aligned block and publishes it when
// the table has cells for it; every model that publishes a block stores the
// same bits.
func (s *Speeds) fill(node int, w0 int64, out []float64) {
	if w0 < 0 || w0 >= speedsChunks*speedsChunkLen || node >= len(s.index)/speedsChunks {
		lognormals(s.seed, s.sigma, node, w0, out)
		return
	}
	slot := &s.index[node*speedsChunks+int(w0/speedsChunkLen)]
	chunk := slot.Load()
	if chunk == nil {
		chunk = &speedChunk{} // one 8 KiB chunk per 1024 windows per node per sweep, shared by every run of it
		if !slot.CompareAndSwap(nil, chunk) {
			chunk = slot.Load()
		}
	}
	cells := chunk[w0%speedsChunkLen:][:len(out)]
	for i := range cells {
		bits := cells[i].Load()
		if bits == 0 {
			base := w0 &^ (drawBlock - 1)
			var block [drawBlock]float64
			lognormals(s.seed, s.sigma, node, base, block[:])
			for j, v := range block {
				chunk[base%speedsChunkLen+int64(j)].Store(math.Float64bits(v))
			}
			bits = cells[i].Load()
		}
		out[i] = math.Float64frombits(bits)
	}
}
