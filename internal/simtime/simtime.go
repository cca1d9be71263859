// Package simtime provides the scalar time types used throughout the cluster
// simulator.
//
// Two clock domains exist and must never be confused:
//
//   - Guest time is the simulated time inside a node (the time the simulated
//     OS and applications observe).
//   - Host time is the (modelled or real) wall-clock time of the machine that
//     executes the simulators. Simulation speed and synchronization overhead
//     live in this domain.
//
// Both are represented as int64 nanosecond counts with distinct types so that
// the compiler rejects accidental cross-domain arithmetic.
package simtime

import (
	"fmt"
	"strconv"
	"strings"
)

// Guest is an absolute point in simulated (guest) time, in nanoseconds since
// the start of the simulation.
type Guest int64

// Host is an absolute point in host time, in nanoseconds since the start of
// the simulation run.
type Host int64

// Duration is a length of time in nanoseconds, valid in either domain.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// GuestInfinity is a guest time later than any reachable simulation time.
const GuestInfinity Guest = 1<<63 - 1

// HostInfinity is a host time later than any reachable simulation time.
const HostInfinity Host = 1<<63 - 1

// Add returns the guest time d after t.
func (t Guest) Add(d Duration) Guest { return t + Guest(d) }

// Sub returns the duration t-u.
func (t Guest) Sub(u Guest) Duration { return Duration(t - u) }

// Add returns the host time d after t.
func (t Host) Add(d Duration) Host { return t + Host(d) }

// Sub returns the duration t-u.
func (t Host) Sub(u Host) Duration { return Duration(t - u) }

// Nanoseconds returns d as an integer nanosecond count.
func (d Duration) Nanoseconds() int64 { return int64(d) }

// Microseconds returns d as fractional microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

// Seconds returns d as fractional seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Scale returns d multiplied by f, rounding to the nearest nanosecond.
// Negative results are clamped to zero: scaled durations model physical
// costs, which cannot be negative.
func (d Duration) Scale(f float64) Duration {
	s := float64(d) * f
	if s <= 0 {
		return 0
	}
	return Duration(s + 0.5)
}

// String formats d using the largest unit that keeps the value readable,
// e.g. "1.5ms", "250µs", "30ns".
func (d Duration) String() string {
	switch {
	case d == 0:
		return "0s"
	case d%Second == 0:
		return strconv.FormatInt(int64(d/Second), 10) + "s"
	case d >= Second || d <= -Second:
		return trimZeros(fmt.Sprintf("%.3f", float64(d)/1e9)) + "s"
	case d%Millisecond == 0:
		return strconv.FormatInt(int64(d/Millisecond), 10) + "ms"
	case d >= Millisecond || d <= -Millisecond:
		return trimZeros(fmt.Sprintf("%.3f", float64(d)/1e6)) + "ms"
	case d%Microsecond == 0:
		return strconv.FormatInt(int64(d/Microsecond), 10) + "µs"
	case d >= Microsecond || d <= -Microsecond:
		return trimZeros(fmt.Sprintf("%.3f", float64(d)/1e3)) + "µs"
	default:
		return strconv.FormatInt(int64(d), 10) + "ns"
	}
}

func trimZeros(s string) string {
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// String formats the guest time as a duration since simulation start.
func (t Guest) String() string { return Duration(t).String() }

// String formats the host time as a duration since run start.
func (t Host) String() string { return Duration(t).String() }

// ParseDuration parses strings like "1us", "1µs", "10ms", "2s", "500ns",
// "1.5ms". It exists so command-line tools do not need time.ParseDuration's
// full generality (and so "us" is accepted as a spelling of µs).
func ParseDuration(s string) (Duration, error) {
	orig := s
	var unit Duration
	switch {
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "us"):
		unit, s = Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "µs"):
		unit, s = Microsecond, strings.TrimSuffix(s, "µs")
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "s"):
		unit, s = Second, strings.TrimSuffix(s, "s")
	default:
		return 0, fmt.Errorf("simtime: missing unit in duration %q", orig)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("simtime: invalid duration %q", orig)
	}
	ns := v * float64(unit)
	if ns >= 0 {
		return Duration(ns + 0.5), nil
	}
	return Duration(ns - 0.5), nil
}

// MinDuration returns the smaller of a and b.
func MinDuration(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// MaxGuest returns the later of a and b.
func MaxGuest(a, b Guest) Guest {
	if a > b {
		return a
	}
	return b
}

// MinGuest returns the earlier of a and b.
func MinGuest(a, b Guest) Guest {
	if a < b {
		return a
	}
	return b
}

// MaxHost returns the later of a and b.
func MaxHost(a, b Host) Host {
	if a > b {
		return a
	}
	return b
}
