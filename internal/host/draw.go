package host

import (
	"math"

	"clustersim/internal/rng"
)

// drawBlock is how many consecutive jitter windows of one node are drawn in
// one pass: a Model's memo holds one such block per reserved node, and a
// Speeds table publishes one per miss. Blocks start at multiples of
// drawBlock.
const drawBlock = 16

// lognormals writes the speed multipliers of node's windows w0, w0+1, …,
// w0+len(out)-1 into out, which holds at most drawBlock of them. Window w's
// multiplier is exp(-σ²/2 + σ·n), where n = sqrt(-2 ln u)·cos(2πv) is the
// Box–Muller normal of the uniforms rng.HashFloat01(seed, node, w, 1) and
// rng.HashFloat01(seed, node, w, 2); mu = -σ²/2 gives the lognormal mean 1,
// so jitter never biases the average speed, only its spread.
//
// Every window gets the same bits whatever block it is drawn in. The block
// only makes the draws cheaper: the (seed, node) prefix of the hash is folded
// once, and the later stages run over the whole block — four windows per
// instruction where vectorDraw can run, as scalarDraw's loops otherwise — so
// independent draws overlap instead of each waiting out one serial chain of
// hash, Log, Sqrt, Cos and Exp.
func lognormals(seed uint64, sigma float64, node int, w0 int64, out []float64) {
	var u, v [drawBlock]float64
	prefix := rng.Hash(seed, uint64(node))
	for i := range out {
		h := rng.Fold(prefix, uint64(w0)+uint64(i))
		u[i] = rng.Unit(rng.Fold(h, 1))
		v[i] = rng.Unit(rng.Fold(h, 2))
	}
	mu := -sigma * sigma / 2
	if !vectorDraw(&u, &v, mu, sigma, out) {
		scalarDraw(u[:len(out)], v[:len(out)], mu, sigma, out)
	}
}

// scalarDraw writes Exp(mu + sigma·Sqrt(-2·Log u)·cosTurn(v)) for each pair
// of us and vs into out, one stage per loop.
func scalarDraw(us, vs []float64, mu, sigma float64, out []float64) {
	out = out[:len(us)]
	for i, x := range us {
		out[i] = math.Sqrt(-2*math.Log(x)) * cosTurn(vs[i])
	}
	for i, x := range out {
		out[i] = math.Exp(mu + sigma*x)
	}
}

// cosTurn returns math.Cos(2π·v) bit for bit for v in (0, 1], the range of
// rng.Unit. It is math/sin.go's cos (Cephes) for arguments below its
// reduceThreshold, made branch-free: which octant a uniform v falls in is
// unpredictable, so both polynomial arms are evaluated and a mask picks one,
// and the sign is set by XOR.
func cosTurn(v float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	// The argument math.Cos would be passed, rounded on its own: the
	// conversion keeps a fused multiply-add from absorbing the product.
	x := float64(2 * math.Pi * v)
	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4)
	j += j & 1                     // map zeros to origin
	y := float64(j)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // extended precision modular arithmetic

	zz := z * z
	s := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	c := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	// j is even now, and only j mod 8 matters: octants 2 and 6 take the sine
	// arm (bit 1), octants 2 and 4 are negated (bit 1 xor bit 2).
	sine := -(j >> 1 & 1) // all ones on the sine arm
	bits := math.Float64bits(s)&sine | math.Float64bits(c)&^sine
	return math.Float64frombits(bits ^ ((j>>1^j>>2)&1)<<63)
}

// math/sin.go's polynomial coefficients.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}
