package host

import "math/bits"

// vectorDraw runs stages 2 and 3 of lognormals — Sqrt(-2·Log u)·cosTurn(v),
// then Exp(mu + sigma·x) — four windows per instruction, and reports false,
// drawing nothing, where the kernel cannot run. Each lane repeats the scalar
// operation sequence, so the bits equal scalarDraw's; a lane the kernel
// flags, where math.Exp would leave its main path, is redrawn in scalar.
func vectorDraw(u, v *[drawBlock]float64, mu, sigma float64, out []float64) bool {
	if !haveAVX2FMA {
		return false
	}
	n := len(out)
	for i := n; i < (n+3)&^3; i++ {
		u[i], v[i] = 1, 1 // pad the last group of four with a valid input
	}
	var res [drawBlock]float64
	for fall := expNormals(u, v, &res, mu, sigma, n); fall != 0; fall &= fall - 1 {
		i := bits.TrailingZeros64(fall)
		scalarDraw(u[i:i+1], v[i:i+1], mu, sigma, res[i:i+1])
	}
	copy(out, res[:n])
	return true
}

// haveAVX2FMA reports AVX2, FMA and OS-saved YMM state. math.Exp takes its
// FMA sequence on every such host, and that is the sequence the kernel
// repeats.
var haveAVX2FMA = func() bool {
	const fma, osxsave, avx, avx2 = 1 << 12, 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if maxLeaf < 7 || c1&(fma|osxsave|avx) != fma|osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2 != 0
}()

// expNormals writes the multipliers of lanes [0, n) of u and v into out, n >= 1
// rounded up to a multiple of four, and returns a bit per lane the caller must
// redraw.
//
//go:noescape
func expNormals(u, v, out *[drawBlock]float64, mu, sigma float64, n int) (fallback uint64)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (xcr0 uint32)
