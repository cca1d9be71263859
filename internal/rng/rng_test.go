package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("nearby seeds collided on %d of 100 draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	childBefore := a.Split(3)
	for i := 0; i < 57; i++ {
		a.Uint64()
	}
	childAfter := a.Split(3)
	for i := 0; i < 100; i++ {
		if childBefore.Uint64() != childAfter.Uint64() {
			t.Fatal("Split depends on parent consumption")
		}
	}
}

func TestSplitKeysDiffer(t *testing.T) {
	a := New(7)
	x, y := a.Split(1), a.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different split keys collided on %d of 100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance %v too far from 1", variance)
	}
}

func TestLogNormalMeanOne(t *testing.T) {
	r := New(11)
	sigma := 0.25
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(-sigma*sigma/2, sigma)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("LogNormal(-σ²/2, σ) mean %v too far from 1", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.5)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3.5) > 0.1 {
		t.Errorf("Exp(3.5) mean %v too far from 3.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestHashDeterministicAndSpread(t *testing.T) {
	if Hash(1, 2, 3) != Hash(1, 2, 3) {
		t.Error("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 2, 4) || Hash(1, 2, 3) == Hash(3, 2, 1) {
		t.Error("Hash collisions on trivially different keys (astronomically unlikely)")
	}
	// Uniform-ish spread: bucket 10k hashes into 16 bins.
	bins := make([]int, 16)
	for i := uint64(0); i < 10000; i++ {
		bins[Hash(42, i)%16]++
	}
	for b, n := range bins {
		if n < 400 || n > 900 {
			t.Errorf("bin %d has %d of 10000 hashes", b, n)
		}
	}
}

// A prefix folded once, then the rest of the key, is the whole key hashed.
func TestFoldExtendsHash(t *testing.T) {
	for i := uint64(0); i < 1000; i++ {
		prefix := Hash(i, 7)
		if Fold(Fold(prefix, i*3), 1) != Hash(i, 7, i*3, 1) {
			t.Fatalf("Fold(Fold(Hash(%d, 7), %d), 1) differs from Hash(%d, 7, %d, 1)", i, i*3, i, i*3)
		}
		if Unit(Hash(i, 2)) != HashFloat01(i, 2) {
			t.Fatalf("Unit(Hash(%d, 2)) differs from HashFloat01(%d, 2)", i, i)
		}
	}
	if lo := Unit(0); lo <= 0 {
		t.Errorf("Unit(0) = %v, want above 0", lo)
	}
	if below := Unit(math.MaxUint64 - 1<<11); below >= 1 {
		t.Errorf("Unit just below the top 2^11 hashes = %v, want below 1", below)
	}
	if top := Unit(math.MaxUint64); top != 1 {
		t.Errorf("Unit(MaxUint64) = %v, want 1 (the half-step rounds up)", top)
	}
}

func TestHashFloat01Range(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		v := HashFloat01(7, i)
		if v <= 0 || v >= 1 {
			t.Fatalf("HashFloat01 out of (0,1): %v", v)
		}
	}
}

func TestInt63n(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		v := r.Int63n(1 << 40)
		if v < 0 || v >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	r.Int63n(0)
}
