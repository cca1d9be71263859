package host

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// itself at any offset and any length, a reserved model's block, an
// unreserved node's block of one, a shared table inside and past its bounds —
// gives the reference formula's bits. Sigma 38 puts the Exp argument near
// -722, where many draws come out subnormal or underflow to 0: the lanes the
// vector kernel hands back to math.Exp.
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
		for _, sigma := range []float64{0.22, 0.9, 38} {
			p := DefaultParams()
			p.Seed, p.JitterSigma = seed, sigma
			reserved, shared, unreserved := NewModel(p), NewModel(p), NewModel(p)
			reserved.Reserve(nodes)
			shared.Reserve(nodes)
			shared.Share(NewSpeeds(p, nodes))
			for node := 0; node < nodes; node++ {
				for _, w0 := range starts {
					var want [drawBlock]uint64
					for i := range want {
						want[i] = math.Float64bits(lognormal(seed, sigma, node, w0+int64(i)))
					}
					fail := func(i int, label string, got float64) {
						t.Helper()
						t.Fatalf("seed %d sigma %v node %d window %d (block from %d): %s draw %v, reference %v",
							seed, sigma, node, w0+int64(i), w0, label, got, math.Float64frombits(want[i]))
					}
					for n := 1; n <= drawBlock; n++ {
						var out [drawBlock]float64
						lognormals(seed, sigma, node, w0, out[:n])
						for i, got := range out[:n] {
							if math.Float64bits(got) != want[i] {
								fail(i, fmt.Sprintf("kernel (length %d)", n), got)
							}
						}
					}
					for i := range drawBlock - int(w0%drawBlock) { // the rest of w0's aligned block
						w := w0 + int64(i)
						for _, d := range []struct {
							label string
							got   float64
						}{
							{"reserved", reserved.Speed(node, w)},
							{"shared", shared.Speed(node, w)},
							{"unreserved", unreserved.Speed(node, w)},
						} {
							if math.Float64bits(d.got) != want[i] {
								fail(i, d.label, d.got)
							}
						}
					}
				}
			}
		}
	}
}

// TestLognormalsVectorMatchesScalar holds the vector kernel to the scalar
// loops lane by lane: random uniforms at sigmas that include lanes the kernel
// hands back, the extremes of rng.Unit, cosTurn's octant edges, and Exp
// arguments set directly through mu at sigma 0. It skips where the kernel
// cannot run.
func TestLognormalsVectorMatchesScalar(t *testing.T) {
	var probe [drawBlock]float64
	if !vectorDraw(&[drawBlock]float64{1}, &[drawBlock]float64{1}, 0, 0, probe[:1]) {
		t.Skip("no vector kernel on this host")
	}
	sigmas := []float64{0, 0.22, 0.9, 37, 38.5, 40}
	check := func(u, v *[drawBlock]float64, n int, mu, sigma float64) {
		t.Helper()
		var want, got [drawBlock]float64
		scalarDraw(u[:n], v[:n], mu, sigma, want[:n])
		vectorDraw(u, v, mu, sigma, got[:n])
		for i := range n {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("mu %v sigma %v lane %d of %d, u %v v %v: vector %v (%#x), scalar %v (%#x)",
					mu, sigma, i, n, u[i], v[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}

	// Every v within 5 ulps of an octant edge k/8, against both extremes of
	// rng.Unit and √2/2, archLog's adjust edge.
	var edges []float64
	for k := 0; k <= 8; k++ {
		for _, dir := range []float64{0, 1} {
			v := float64(k) / 8
			for range 6 {
				if v > 0 && v <= 1 {
					edges = append(edges, v)
				}
				v = math.Nextafter(v, dir)
			}
		}
	}
	for _, u := range []float64{rng.Unit(0), rng.Unit(math.MaxUint64), math.Sqrt2 / 2, math.Sqrt2 / 4} {
		for _, sigma := range sigmas {
			for i := 0; i < len(edges); i += drawBlock {
				var us, vs [drawBlock]float64
				n := copy(vs[:], edges[i:])
				for j := range n {
					us[j] = u
				}
				check(&us, &vs, n, -sigma*sigma/2, sigma)
			}
		}
	}

	// Exp's argument is mu itself at sigma 0 (u = 1 makes the normal 0):
	// archExp's range and a little past it, its special cases, and
	// arguments at which computing archExp's 1/6 or 1/2 Horner step
	// unfused changes the result.
	args := []float64{252.65713330415315, 373.94495679994657, 226.38907078609952, -281.301413817596,
		0, 709.782712893384, math.Nextafter(709.782712893384, 1000), -708.3964185322641, -745.1332191019411,
		-745.1332191019412, -746, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rng.New(53)
	for range 100_000 {
		args = append(args, -750+rng.Unit(r.Uint64())*1462)
	}
	for i := 0; i < len(args); i += drawBlock {
		var us, vs [drawBlock]float64
		for j := range us {
			us[j], vs[j] = 1, 1
		}
		for j, mu := range args[i:min(i+drawBlock, len(args))] {
			check(&us, &vs, j+1, mu, 0)
		}
	}

	pairs := 10_000_000
	if testing.Short() {
		pairs = 100_000
	}
	for done := 0; done < pairs; {
		var us, vs [drawBlock]float64
		n := 1 + int(r.Uint64()%drawBlock)
		for i := range n {
			us[i], vs[i] = rng.Unit(r.Uint64()), rng.Unit(r.Uint64())
		}
		sigma := sigmas[r.Uint64()%uint64(len(sigmas))]
		check(&us, &vs, n, -sigma*sigma/2, sigma)
		done += n
	}
}

// TestLognormalsDistribution holds the draws to the distribution they stand
// for, at a fixed seed. The barrier waits for the slowest of N nodes, so the
// mean of the largest of N multipliers of a window is checked against the
// integral E[max] = ∫ exp(mu + σz)·N·φ(z)·Φ(z)^(N-1) dz, within 4 standard
// errors (every row is within 1.3 at seed 1); and a Kolmogorov–Smirnov test
// holds the draws of eight nodes to lognormal(-σ²/2, σ) at the 0.1% level
// (D·√n < 1.95).
func TestLognormalsDistribution(t *testing.T) {
	const (
		windows = 20_000
		nodes   = 64
		ksNodes = 8
	)
	for _, sigma := range []float64{0.1, 0.22, 0.5} {
		mu := -sigma * sigma / 2
		draws := make([][]float64, nodes)
		for node := range draws {
			draws[node] = make([]float64, windows)
			for w := 0; w < windows; w += drawBlock {
				lognormals(1, sigma, node, int64(w), draws[node][w:w+drawBlock])
			}
		}
		for _, n := range []int{1, 2, 8, 64} {
			var sum, sumSq float64
			for w := range windows {
				m := 0.0
				for _, d := range draws[:n] {
					m = max(m, d[w])
				}
				sum += m
				sumSq += m * m
			}
			mean := sum / windows
			se := math.Sqrt((sumSq/windows - mean*mean) / windows)
			if want := expectedMax(n, mu, sigma); math.Abs(mean-want) > 4*se {
				t.Errorf("sigma %v N %d: E[max] %.5f over %d windows, integral %.5f: %.1f standard errors apart",
					sigma, n, mean, windows, want, math.Abs(mean-want)/se)
			}
		}
		var all []float64
		for _, d := range draws[:ksNodes] {
			all = append(all, d...)
		}
		sort.Float64s(all)
		d := 0.0
		for i, x := range all {
			f := normalCDF((math.Log(x) - mu) / sigma)
			d = max(d, math.Abs(f-float64(i)/float64(len(all))), math.Abs(float64(i+1)/float64(len(all))-f))
		}
		if ks := d * math.Sqrt(float64(len(all))); ks >= 1.95 {
			t.Errorf("sigma %v: KS statistic D·√n = %.3f over %d draws, want < 1.95", sigma, ks, len(all))
		}
	}
}

// expectedMax is E[max of n lognormal(mu, sigma) draws], by Simpson's rule
// over z in [-10, 10].
func expectedMax(n int, mu, sigma float64) float64 {
	const steps = 4000
	h := 20.0 / steps
	f := func(z float64) float64 {
		phi := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
		return math.Exp(mu+sigma*z) * float64(n) * phi * math.Pow(normalCDF(z), float64(n-1))
	}
	sum := f(-10) + f(10)
	for i := 1; i < steps; i++ {
		sum += float64(2+2*(i%2)) * f(-10+float64(i)*h)
	}
	return sum * h / 3
}

func normalCDF(z float64) float64 { return math.Erfc(-z/math.Sqrt2) / 2 }

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
