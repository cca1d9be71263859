package obs

import "math/bits"

// Histogram accumulates int64 samples into power-of-two buckets — enough
// resolution to see the shape of quantum-size, wait or slack distributions
// without pre-declaring ranges. The ladder is mirrored across zero for signed
// samples such as slack: v > 0 lands in [2^(i-1), 2^i) and v < 0 in
// (-2^i, -2^(i-1)] for i = bits.Len64(|v|), and 0 in [0, 1).
type Histogram struct {
	count int64
	sum   int64
	min   int64
	max   int64
	zero  int64
	pos   [65]int64
	neg   [65]int64
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	switch {
	case v > 0:
		h.pos[bits.Len64(uint64(v))]++
	case v < 0:
		h.neg[bits.Len64(uint64(-v))]++
	default:
		h.zero++
	}
}

// Summary returns the sample count, sum, minimum and maximum.
func (h *Histogram) Summary() (count, sum, min, max int64) {
	return h.count, h.sum, h.min, h.max
}

// Buckets calls fn for every occupied bucket, ascending, with the half-open
// interval [lo, hi) it covers: negative bucket i is [1-2^i, 1-2^(i-1)).
func (h *Histogram) Buckets(fn func(lo, hi, count int64)) {
	for i := 64; i >= 1; i-- {
		if c := h.neg[i]; c != 0 {
			fn(1-(int64(1)<<uint(i)), 1-(int64(1)<<uint(i-1)), c)
		}
	}
	if h.zero != 0 {
		fn(0, 1, h.zero)
	}
	for i := 1; i <= 64; i++ {
		if c := h.pos[i]; c != 0 {
			fn(int64(1)<<uint(i-1), int64(1)<<uint(i), c)
		}
	}
}
