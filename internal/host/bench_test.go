package host

import (
	"testing"

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

// BenchmarkSpeedDraw is the cost of one speed draw: ns per fresh jitter
// window through a reserved Model, as a run reaches them.
func BenchmarkSpeedDraw(b *testing.B) {
	m := NewModel(DefaultParams())
	m.Reserve(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMult = m.Speed(0, int64(i))
	}
}
