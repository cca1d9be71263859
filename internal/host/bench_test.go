package host

import (
	"testing"

	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

// The conversion benchmarks reserve the nodes they use, as every run does:
// an unreserved node draws its multiplier afresh on each call.

func BenchmarkHostCostOneWindow(b *testing.B) {
	m := NewModel(DefaultParams())
	m.Reserve(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := simtime.Guest(i%1000) * 10
		m.HostCost(i%8, g, g+5000, Busy)
	}
}

func BenchmarkUniformUntil(b *testing.B) {
	m := NewModel(DefaultParams())
	for i := 0; i < b.N; i++ {
		sinkGuest, _ = m.UniformUntil(simtime.Guest(i%1000) * 10)
	}
}

var (
	sinkGuest simtime.Guest
	sinkMult  float64
)

func BenchmarkHostCostLongQuantum(b *testing.B) {
	// A 1000µs quantum spans 100 jitter windows.
	m := NewModel(DefaultParams())
	m.Reserve(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := simtime.Guest(i%16) * simtime.Guest(simtime.Millisecond)
		m.HostCost(i%8, g, g+simtime.Guest(simtime.Millisecond), Busy)
	}
}

func BenchmarkGuestAt(b *testing.B) {
	m := NewModel(DefaultParams())
	m.Reserve(4)
	cost := m.HostCost(3, 0, simtime.Guest(100*simtime.Microsecond), Busy)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.GuestAt(3, 0, cost/2, Busy, simtime.Guest(100*simtime.Microsecond))
	}
}

// BenchmarkSpeedDraw is the cost of the speed draw. model: ns per fresh
// jitter window through a reserved Model, as a run reaches them, hash
// included. vector and scalar: ns per block of drawBlock windows through
// stages 2 and 3 of each kernel alone; vector skips where the kernel cannot
// run.
func BenchmarkSpeedDraw(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		m := NewModel(DefaultParams())
		m.Reserve(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMult = m.Speed(0, int64(i))
		}
	})
	var u, v, out [drawBlock]float64
	r := rng.New(1)
	for i := range u {
		u[i], v[i] = rng.Unit(r.Uint64()), rng.Unit(r.Uint64())
	}
	sigma := DefaultParams().JitterSigma
	mu := -sigma * sigma / 2
	b.Run("vector", func(b *testing.B) {
		if !vectorDraw(&u, &v, mu, sigma, out[:]) {
			b.Skip("no vector kernel on this host")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vectorDraw(&u, &v, mu, sigma, out[:])
		}
		sinkMult = out[0]
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scalarDraw(u[:], v[:], mu, sigma, out[:])
		}
		sinkMult = out[0]
	})
}
