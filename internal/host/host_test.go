package host

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clustersim/internal/simtime"
)

func testParams() Params {
	p := DefaultParams()
	return p
}

func TestHostCostNoJitter(t *testing.T) {
	p := testParams()
	p.JitterSigma = 0
	m := NewModel(p)
	got := m.HostCost(0, 0, simtime.Guest(100*simtime.Microsecond), Busy)
	want := simtime.Duration(float64(100*simtime.Microsecond) * p.BusySlowdown)
	if got != want {
		t.Errorf("busy cost %v, want %v", got, want)
	}
	gotIdle := m.HostCost(0, 0, simtime.Guest(100*simtime.Microsecond), Idle)
	wantIdle := simtime.Duration(float64(100*simtime.Microsecond) * p.IdleSlowdown)
	if gotIdle != wantIdle {
		t.Errorf("idle cost %v, want %v", gotIdle, wantIdle)
	}
}

func TestHostCostAdditive(t *testing.T) {
	m := NewModel(testParams())
	a := simtime.Guest(13 * simtime.Microsecond)
	b := simtime.Guest(47 * simtime.Microsecond)
	c := simtime.Guest(112 * simtime.Microsecond)
	whole := m.HostCost(3, a, c, Busy)
	split := m.HostCost(3, a, b, Busy) + m.HostCost(3, b, c, Busy)
	diff := int64(whole - split)
	if diff < -2 || diff > 2 {
		t.Errorf("cost not additive: whole %v vs split %v", whole, split)
	}
}

func TestGuestAtInvertsHostCost(t *testing.T) {
	m := NewModel(testParams())
	f := func(startUs, lenUs uint16, node uint8) bool {
		g0 := simtime.Guest(startUs) * 1000
		g1 := g0 + simtime.Guest(lenUs%2000+1)*1000
		cost := m.HostCost(int(node), g0, g1, Busy)
		back := m.GuestAt(int(node), g0, cost, Busy, simtime.GuestInfinity)
		d := int64(back - g1)
		if d < 0 {
			d = -d
		}
		return d <= 2 // rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGuestAtRespectsLimit(t *testing.T) {
	m := NewModel(testParams())
	limit := simtime.Guest(50 * simtime.Microsecond)
	got := m.GuestAt(0, 0, simtime.Duration(1<<50), Busy, limit)
	if got != limit {
		t.Errorf("GuestAt overflowed the limit: %v", got)
	}
	if m.GuestAt(0, limit, 1000, Busy, limit) != limit {
		t.Error("GuestAt from the limit should stay at the limit")
	}
	if m.GuestAt(0, 10, 0, Busy, limit) != 10 {
		t.Error("GuestAt with zero budget should not move")
	}
}

func TestJitterMeanNearOne(t *testing.T) {
	m := NewModel(testParams())
	// Average cost across many windows should approach the slowdown.
	g1 := simtime.Guest(50 * simtime.Millisecond)
	cost := m.HostCost(1, 0, g1, Busy)
	ratio := float64(cost) / (float64(g1) * m.Params().BusySlowdown)
	if math.Abs(ratio-1) > 0.05 {
		t.Errorf("long-run jitter bias %.3f (want ≈1)", ratio)
	}
}

func TestJitterVariesAcrossNodesAndWindows(t *testing.T) {
	m := NewModel(testParams())
	g := simtime.Guest(10 * simtime.Microsecond) // one window
	c0 := m.HostCost(0, 0, g, Busy)
	c1 := m.HostCost(1, 0, g, Busy)
	if c0 == c1 {
		t.Error("two nodes drew identical jitter in the same window (astronomically unlikely)")
	}
	c0b := m.HostCost(0, simtime.Guest(10*simtime.Microsecond), simtime.Guest(20*simtime.Microsecond), Busy)
	if c0 == c0b {
		t.Error("two windows drew identical jitter (astronomically unlikely)")
	}
}

func TestJitterDeterministic(t *testing.T) {
	a := NewModel(testParams())
	b := NewModel(testParams())
	g := simtime.Guest(123456)
	if a.HostCost(5, 0, g, Busy) != b.HostCost(5, 0, g, Busy) {
		t.Error("same params produced different costs")
	}
	p2 := testParams()
	p2.Seed++
	c := NewModel(p2)
	if a.HostCost(5, 0, g, Busy) == c.HostCost(5, 0, g, Busy) {
		t.Error("different seeds produced identical costs (astronomically unlikely)")
	}
}

// Validate names the field it rejects. NaN needs its own rows: it compares
// false against every bound, so a check written as "v <= 0" lets it through
// and the first cost rounded to a simtime.Duration is garbage.
func TestValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sampling := func(mod func(s *Sampling)) func(p *Params) {
		return func(p *Params) {
			s := *sampledParams(0.5).Sampling
			mod(&s)
			p.Sampling = &s
		}
	}
	bad := []struct {
		field string
		mod   func(p *Params)
	}{
		{"BusySlowdown", func(p *Params) { p.BusySlowdown = 0 }},
		{"BusySlowdown", func(p *Params) { p.BusySlowdown = nan }},
		{"BusySlowdown", func(p *Params) { p.BusySlowdown = inf }},
		{"IdleSlowdown", func(p *Params) { p.IdleSlowdown = -1 }},
		{"IdleSlowdown", func(p *Params) { p.IdleSlowdown = nan }},
		{"IdleSlowdown", func(p *Params) { p.IdleSlowdown = inf }},
		{"JitterSigma", func(p *Params) { p.JitterSigma = -0.1 }},
		{"JitterSigma", func(p *Params) { p.JitterSigma = nan }},
		{"JitterSigma", func(p *Params) { p.JitterSigma = inf }},
		{"JitterSigma", func(p *Params) { p.JitterSigma = -inf }},
		{"JitterPeriod", func(p *Params) { p.JitterPeriod = 0 }},
		{"BarrierCost", func(p *Params) { p.BarrierCost = -1 }},
		{"PacketTransit", func(p *Params) { p.PacketTransit = -1 }},
		{"PacketHostCost", func(p *Params) { p.PacketHostCost = -1 }},
		{"DetailFraction", sampling(func(s *Sampling) { s.DetailFraction = nan })},
		{"DetailFraction", sampling(func(s *Sampling) { s.DetailFraction = inf })},
		{"DetailFraction", sampling(func(s *Sampling) { s.DetailFraction = -inf })},
		{"FastSlowdown", sampling(func(s *Sampling) { s.FastSlowdown = nan })},
		{"FastSlowdown", sampling(func(s *Sampling) { s.FastSlowdown = inf })},
	}
	for i, c := range bad {
		p := testParams()
		c.mod(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("bad params %d (%s) accepted", i, c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("bad params %d: error %q does not name %s", i, err, c.field)
		}
	}
	good := testParams()
	good.PacketTransit, good.PacketHostCost, good.BarrierCost, good.JitterSigma = 0, 0, 0, 0
	for _, p := range []Params{testParams(), good, sampledParams(0), sampledParams(1)} {
		if err := p.Validate(); err != nil {
			t.Errorf("valid params rejected: %v", err)
		}
	}
}

func TestModeString(t *testing.T) {
	if Busy.String() != "busy" || Idle.String() != "idle" {
		t.Error("mode strings broken")
	}
}

// TestUniformUntil is the law the engine's quiet stretches rest on: every
// interval of one length inside [g, UniformUntil(g)] costs a node the same in
// a given mode — with and without its memo entry — the bound is tight (an
// interval reaching one nanosecond past it can cost something else), and a
// sampling schedule leaves no uniform span at all.
func TestUniformUntil(t *testing.T) {
	rnd := rand.New(rand.NewSource(24))
	tight := false
	for trial := 0; trial < 300; trial++ {
		p := DefaultParams()
		p.Seed = rnd.Uint64()
		m := NewModel(p)
		m.Reserve(8)
		node := rnd.Intn(12) // four of them beyond the reservation
		mode := Mode(rnd.Intn(2))
		g := simtime.Guest(rnd.Int63n(int64(simtime.Millisecond)))
		u, w := m.UniformUntil(g)
		if u <= g || u.Sub(g) > p.JitterPeriod {
			t.Fatalf("UniformUntil(%v) = %v, want within one jitter period past it", g, u)
		}
		n := simtime.Guest(rnd.Int63n(int64(u-g)) + 1)
		want := m.HostCost(node, g, g+n, mode)
		if got := Cost(simtime.Duration(n), m.Rate(mode), m.Speed(node, w)); got != want {
			t.Fatalf("seed %d node %d %v: Cost in window %d of %v = %v, HostCost [%v, %v] = %v",
				p.Seed, node, mode, w, n, got, g, g+n, want)
		}
		for a := g; a+n <= u; a += simtime.Guest(1 + rnd.Intn(97)) {
			if got := m.HostCost(node, a, a+n, mode); got != want {
				t.Fatalf("seed %d node %d %v: [%v, %v] costs %v, [%v, %v] costs %v, both inside [%v, %v]",
					p.Seed, node, mode, g, g+n, want, a, a+n, got, g, u)
			}
		}
		if got := m.HostCost(node, u-n, u, mode); got != want {
			t.Fatalf("seed %d node %d %v: the last interval [%v, %v] costs %v, the first %v", p.Seed, node, mode, u-n, u, got, want)
		}
		if m.HostCost(node, u-n+1, u+1, mode) != want {
			tight = true
		}

		p.Sampling = &Sampling{Period: 7 * simtime.Microsecond, DetailFraction: 0.4, FastSlowdown: 2}
		if got, w := NewModel(p).UniformUntil(g); got != g || w != -1 {
			t.Fatalf("under a sampling schedule UniformUntil(%v) = %v, window %d, want %v, window -1", g, got, w, g)
		}
	}
	if !tight {
		t.Error("no interval reaching 1ns past UniformUntil cost differently: the bound is not shown tight")
	}
}
