package simtime

import (
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{1, "1ns"},
		{999, "999ns"},
		{Microsecond, "1µs"},
		{1500, "1.5µs"},
		{10 * Microsecond, "10µs"},
		{Millisecond, "1ms"},
		{1300 * Microsecond, "1.3ms"},
		{Second, "1s"},
		{2500 * Millisecond, "2.5s"},
		{90 * Second, "90s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d ns).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Duration
	}{
		{"1ns", 1},
		{"1us", Microsecond},
		{"1µs", Microsecond},
		{"10us", 10 * Microsecond},
		{"1.5ms", 1500 * Microsecond},
		{"2s", 2 * Second},
		{"0.25us", 250},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDuration(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "10", "xms", "s", "10m"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) did not fail", bad)
		}
	}
}

func TestParseFormatsRoundTrip(t *testing.T) {
	// Round-trippable durations (exact unit multiples) survive
	// String→Parse.
	f := func(us int32) bool {
		d := Duration(us%1_000_000) * Microsecond
		if d < 0 {
			d = -d
		}
		back, err := ParseDuration(d.String())
		return err == nil && back == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScale(t *testing.T) {
	if got := (100 * Microsecond).Scale(0.5); got != 50*Microsecond {
		t.Errorf("Scale(0.5) = %v", got)
	}
	if got := (100 * Microsecond).Scale(0); got != 0 {
		t.Errorf("Scale(0) = %v", got)
	}
	if got := Duration(-5).Scale(2); got != 0 {
		t.Errorf("negative scaled should clamp to 0, got %v", got)
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if MinDuration(1, 2) != 1 || MinDuration(2, 1) != 1 {
		t.Error("duration min broken")
	}
	if MaxGuest(3, 4) != 4 || MinGuest(3, 4) != 3 {
		t.Error("guest min/max broken")
	}
	if MaxHost(5, 6) != 6 || MaxHost(6, 5) != 6 {
		t.Error("host max broken")
	}
}

func TestClockArithmetic(t *testing.T) {
	g := Guest(100)
	if g.Add(50) != Guest(150) {
		t.Error("Guest.Add broken")
	}
	if Guest(150).Sub(g) != 50 {
		t.Error("Guest.Sub broken")
	}
	h := Host(10)
	if h.Add(5) != Host(15) || Host(15).Sub(h) != 5 {
		t.Error("Host arithmetic broken")
	}
}

func TestNegativeDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{-1500 * Microsecond, "-1.5ms"},
		{-2 * Second, "-2s"},
		{-2500 * Millisecond, "-2.5s"},
		{-250, "-250ns"},
		{-1500, "-1.5µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d ns).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDurationAccessors(t *testing.T) {
	d := 1500 * Microsecond
	if d.Nanoseconds() != 1_500_000 {
		t.Error("Nanoseconds")
	}
	if d.Microseconds() != 1500 {
		t.Error("Microseconds")
	}
	if d.Seconds() != 0.0015 {
		t.Error("Seconds")
	}
}

func TestClockStrings(t *testing.T) {
	if Guest(1500).String() != "1.5µs" || Host(2*Second).String() != "2s" {
		t.Error("clock String broken")
	}
}

func TestNegativeParse(t *testing.T) {
	d, err := ParseDuration("-2.5ms")
	if err != nil || d != -2500*Microsecond {
		t.Errorf("ParseDuration(-2.5ms) = %v, %v", d, err)
	}
}
