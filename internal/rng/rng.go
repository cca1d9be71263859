// Package rng implements a small, fast, splittable pseudo-random number
// generator (splitmix64 seeding an xoshiro256** state).
//
// The cluster simulator needs many independent random streams — one per
// (node, purpose) pair — that are stable across runs and independent of the
// order in which other streams are consumed. math/rand's global source does
// not offer cheap, deterministic splitting, so we implement our own.
package rng

import "math"

// Stream is a deterministic random stream. The zero value is not usable;
// obtain Streams with New or Split.
type Stream struct {
	s [4]uint64
	// id is the stream's immutable identity; Split derives children from it
	// so the child set never depends on how much the parent was consumed.
	id uint64
}

// New returns a stream seeded from seed via splitmix64, so nearby seeds yield
// unrelated streams.
func New(seed uint64) *Stream {
	r := &Stream{id: seed}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro256** must not start in the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent stream from r, keyed by key. Splitting
// does not consume or observe the parent's draw state, so the set of child
// streams is stable no matter how much the parent has been used.
func (r *Stream) Split(key uint64) *Stream {
	return New(mix(r.id*0x9e3779b97f4a7c15+1) ^ mix(key))
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// Hash folds the given words into one well-mixed 64-bit value. It is the
// allocation-free path for code that needs a single deterministic random
// value per key (e.g. one jitter draw per (node, window)).
func Hash(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = Fold(h, v)
	}
	return h
}

// Fold mixes one more word into a hash: Hash(a, b, c) is
// Fold(Hash(a, b), c). Keys that share a prefix can fold it once and each
// key's remaining words onto it.
func Fold(h, v uint64) uint64 { return mix(h ^ v*0xbf58476d1ce4e5b9) }

// HashFloat01 maps a hashed key to a uniform float64 in (0, 1] (see Unit).
func HashFloat01(vals ...uint64) float64 { return Unit(Hash(vals...)) }

// Unit maps a hash to a uniform float64: HashFloat01 is Unit(Hash(...)). The
// result is in (0, 1) except for the top 2^11 hashes, one in 2^53, for which
// the half-step offset rounds up to exactly 1.
func Unit(h uint64) float64 { return (float64(h>>11) + 0.5) / (1 << 53) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Norm returns a standard normal variate (Box–Muller, one branch).
func (r *Stream) Norm() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// LogNormal returns exp(mu + sigma*N(0,1)). With mu = -sigma²/2 the mean is
// 1, which is convenient for multiplicative speed jitter.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Exp returns an exponential variate with the given mean.
func (r *Stream) Exp(mean float64) float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -mean * math.Log(u)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
