package host

import (
	"math"
	"math/rand"
	"testing"

	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// lognormal is the one-window formula the block kernel must reproduce bit for
// bit: two keyed hashes, Box–Muller, exp.
func lognormal(seed uint64, sigma float64, node int, window int64) float64 {
	u := rng.HashFloat01(seed, uint64(node), uint64(window), 1)
	v := rng.HashFloat01(seed, uint64(node), uint64(window), 2)
	norm := math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	return math.Exp(-sigma*sigma/2 + sigma*norm)
}

func TestCosTurnMatchesMathCos(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := cosTurn(v), math.Cos(2*math.Pi*v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosTurn(%v) = %v (%#x), math.Cos(2π·v) = %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// The octant edges, where the reduction changes arm and sign.
	for k := 0; k <= 8; k++ {
		edge := float64(k) / 8
		for _, dir := range []float64{0, 1} {
			v := edge
			for step := 0; step < 6; step++ {
				if v > 0 && v < 1 {
					check(v)
				}
				v = math.Nextafter(v, dir)
			}
		}
	}
	// The extremes of rng.Unit, and arguments far below them.
	check(rng.Unit(0))
	check(rng.Unit(math.MaxUint64))
	for _, v := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-17, math.Nextafter(1, 0)} {
		check(v)
	}
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	r := rng.New(30)
	for i := 0; i < n; i++ {
		check(rng.Unit(r.Uint64()))
	}
}

// TestLognormalsMatchReference: every way a multiplier is drawn — the kernel
// itself at any offset and length, a reserved model's block, an unreserved
// node's block of one, a shared table inside and past its bounds — gives the
// reference formula's bits.
func TestLognormalsMatchReference(t *testing.T) {
	const (
		horizon = speedsChunks * speedsChunkLen
		nodes   = 71 // past speedsNodes
	)
	var starts []int64
	for _, w := range []int64{0, drawBlock, speedsChunkLen, 5 * speedsChunkLen, horizon, 1 << 40} {
		for _, d := range []int64{-drawBlock - 1, -drawBlock, -1, 0, 1, drawBlock - 1} {
			if w+d >= 0 {
				starts = append(starts, w+d)
			}
		}
	}
	for _, seed := range []uint64{1, 2, 0xdeadbeefcafe} {
		for _, sigma := range []float64{0.22, 0.9} {
			p := DefaultParams()
			p.Seed, p.JitterSigma = seed, sigma
			reserved, shared, unreserved := NewModel(p), NewModel(p), NewModel(p)
			reserved.Reserve(nodes)
			shared.Reserve(nodes)
			shared.Share(NewSpeeds(p, nodes))
			for node := 0; node < nodes; node++ {
				for _, w0 := range starts {
					var out [drawBlock]float64
					n := drawBlock - int(w0%drawBlock) // the rest of w0's aligned block
					lognormals(seed, sigma, node, w0, out[:n])
					for i := range n {
						w := w0 + int64(i)
						want := math.Float64bits(lognormal(seed, sigma, node, w))
						for label, got := range map[string]float64{
							"kernel":     out[i],
							"reserved":   reserved.Speed(node, w),
							"shared":     shared.Speed(node, w),
							"unreserved": unreserved.Speed(node, w),
						} {
							if math.Float64bits(got) != want {
								t.Fatalf("seed %d sigma %v node %d window %d (block from %d): %s draw %v, reference %v",
									seed, sigma, node, w, w0, label, got, math.Float64frombits(want))
							}
						}
					}
				}
			}
		}
	}
}

// A reserved node's conversions equal an unreserved node's, whose every
// window is drawn afresh, while the walk steps back across a block boundary:
// a re-aim or GuestAt can revisit a window before the memo's block.
func TestMemoBlockStepBack(t *testing.T) {
	p := testParams()
	memo, plain := NewModel(p), NewModel(p)
	memo.Reserve(4)
	per := simtime.Guest(p.JitterPeriod)
	edge := drawBlock * per // the first block boundary
	rnd := rand.New(rand.NewSource(30))
	for i := 0; i < 4000; i++ {
		node := rnd.Intn(4)
		// Either side of a block boundary, up to two blocks away.
		b := edge * simtime.Guest(2+rnd.Intn(3))
		g0 := b + simtime.Guest(rnd.Int63n(int64(4*edge))) - 2*edge
		g1 := g0 + simtime.Guest(rnd.Int63n(int64(3*per))+1)
		mode := Mode(rnd.Intn(2))
		a, c := memo.HostCost(node, g0, g1, mode), plain.HostCost(node, g0, g1, mode)
		if a != c {
			t.Fatalf("HostCost(%d, %v, %v, %v): %v with the memo, %v without", node, g0, g1, mode, a, c)
		}
		if x, y := memo.GuestAt(node, g0, a/2, mode, g1), plain.GuestAt(node, g0, a/2, mode, g1); x != y {
			t.Fatalf("GuestAt(%d, %v, %v, %v): %v with the memo, %v without", node, g0, a/2, mode, x, y)
		}
	}
}
