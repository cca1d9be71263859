package quantum

import (
	"math"
	"testing"
	"testing/quick"

	"clustersim/internal/simtime"
)

func TestFixedPolicy(t *testing.T) {
	f := Fixed{Q: 10 * simtime.Microsecond}
	if f.First() != 10*simtime.Microsecond {
		t.Error("Fixed.First wrong")
	}
	for np := 0; np < 100; np += 7 {
		if f.Next(Feedback{Packets: np}) != 10*simtime.Microsecond {
			t.Error("Fixed.Next varied")
		}
	}
	if f.Name() != "Q=10µs" {
		t.Errorf("Fixed.Name = %q", f.Name())
	}
}

func TestAdaptiveStartsAtMin(t *testing.T) {
	a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	if a.First() != simtime.Microsecond {
		t.Error("adaptive does not start at minQ")
	}
}

func TestAdaptiveGrowsWhileSilent(t *testing.T) {
	a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	q := a.First()
	for i := 0; i < 50; i++ {
		next := a.Next(Feedback{Packets: 0})
		if next < q {
			t.Fatalf("quantum shrank during silence: %v -> %v", q, next)
		}
		q = next
	}
	if q <= simtime.Microsecond {
		t.Error("quantum never grew")
	}
}

func TestAdaptiveCollapsesOnTraffic(t *testing.T) {
	a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	a.First()
	var q simtime.Duration
	for i := 0; i < 10000; i++ {
		q = a.Next(Feedback{Packets: 0})
	}
	if q != simtime.Millisecond {
		t.Fatalf("quantum did not saturate at max: %v", q)
	}
	// The paper: dec ≈ 1/sqrt(max/min) collapses the quantum "in just two
	// or three quanta at most".
	q = a.Next(Feedback{Packets: 5})
	q2 := a.Next(Feedback{Packets: 5})
	if q2 != simtime.Microsecond {
		t.Errorf("quantum not back at min after two traffic quanta: %v then %v", q, q2)
	}
}

func TestAdaptiveBoundsProperty(t *testing.T) {
	f := func(traffic []bool) bool {
		a := NewAdaptive(2*simtime.Microsecond, 500*simtime.Microsecond, 1.05, 0.1)
		q := a.First()
		if q < a.Min || q > a.Max {
			return false
		}
		for _, hasTraffic := range traffic {
			np := 0
			if hasTraffic {
				np = 3
			}
			q = a.Next(Feedback{Packets: np})
			if q < a.Min || q > a.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveMonotoneSemanticsProperty(t *testing.T) {
	// Silence never shrinks the quantum; traffic never grows it.
	f := func(traffic []bool) bool {
		a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
		q := a.First()
		for _, hasTraffic := range traffic {
			np := 0
			if hasTraffic {
				np = 1
			}
			next := a.Next(Feedback{Packets: np})
			if hasTraffic && next > q {
				return false
			}
			if !hasTraffic && next < q {
				return false
			}
			q = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveInvalidConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewAdaptive(0, simtime.Millisecond, 1.03, 0.02) },
		func() { NewAdaptive(simtime.Millisecond, simtime.Microsecond, 1.03, 0.02) },
		func() { NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.0, 0.02) },
		func() { NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0) },
		func() { NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 1) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid config %d did not panic", i)
				}
			}()
			c()
		}()
	}
}

func TestRecommendedDec(t *testing.T) {
	// For the paper's 1µs..1000µs range: 1/sqrt(1000) ≈ 0.0316, "very close
	// to" the 0.02 the paper uses.
	got := RecommendedDec(simtime.Microsecond, simtime.Millisecond)
	if math.Abs(got-1/math.Sqrt(1000)) > 1e-9 {
		t.Errorf("RecommendedDec = %v", got)
	}
	if RecommendedDec(0, simtime.Millisecond) != 0.02 {
		t.Error("degenerate range should fall back to 0.02")
	}
}

func TestAdaptiveSubNanosecondGrowthAccumulates(t *testing.T) {
	// With minQ = 1µs and inc = 1.03 the first growth step is 30ns; with
	// integer truncation at each step tiny quanta would stall. Check growth
	// from a 10ns floor with 1% increments still escapes.
	a := NewAdaptive(10*simtime.Nanosecond, simtime.Microsecond, 1.01, 0.5)
	a.First()
	var q simtime.Duration
	for i := 0; i < 2000; i++ {
		q = a.Next(Feedback{Packets: 0})
	}
	if q != simtime.Microsecond {
		t.Errorf("quantum stalled at %v", q)
	}
}

func TestAdaptiveName(t *testing.T) {
	a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	if a.Name() != "dyn 1µs:1ms 1.03:0.02" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestAdaptiveCurrent(t *testing.T) {
	a := NewAdaptive(simtime.Microsecond, simtime.Millisecond, 1.03, 0.02)
	if a.Current() != simtime.Microsecond {
		t.Error("Current before First should be Min")
	}
	a.First()
	a.Next(Feedback{Packets: 0})
	if a.Current() <= simtime.Microsecond {
		t.Error("Current did not reflect growth")
	}
}

func TestAdaptiveNameFormat(t *testing.T) {
	// Result and trace labels key off this exact format; the doc comment on
	// Name promises it.
	a := NewAdaptive(simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02)
	if got, want := a.Name(), "dyn 1µs:1ms 1.03:0.02"; got != want {
		t.Errorf("Adaptive.Name() = %q, want %q", got, want)
	}
}
