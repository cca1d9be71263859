// Package quantum implements the synchronization-quantum policies of the
// paper.
//
// The network controller advances the cluster in lock-step quanta: all nodes
// simulate Q of guest time, synchronize at a barrier, and the controller
// picks the next Q. A policy decides that next Q. The paper's contribution
// is the Adaptive policy (Algorithm 1): grow Q slowly while the network is
// silent, collapse it as soon as packets appear — "driving over speed
// bumps".
package quantum

import (
	"fmt"
	"math"

	"clustersim/internal/simtime"
)

// Feedback is what the controller observed during the quantum that just
// completed; policies base their next decision on it.
type Feedback struct {
	// Packets is np in Algorithm 1: the number of network packets the
	// controller routed during the quantum.
	Packets int
	// Stragglers is how many of those packets could not be delivered at
	// their exact simulated arrival time.
	Stragglers int
	// Now is the guest time of the barrier (end of the completed quantum).
	Now simtime.Guest
}

// Policy chooses the duration of each synchronization quantum.
//
// Implementations must be deterministic: the engine replays runs from seeds
// and requires identical decisions on identical feedback sequences.
type Policy interface {
	// First returns the duration of the initial quantum.
	First() simtime.Duration
	// Next returns the duration of the following quantum given feedback
	// from the one that just finished.
	Next(fb Feedback) simtime.Duration
	// Name identifies the policy in results and traces, e.g. "Q=100µs" or
	// "dyn 1µs:1ms 1.03:0.02".
	Name() string
}

// Fixed is the classical lock-step policy: a constant quantum, as in the
// Wisconsin Wind Tunnel. With Q <= T (minimum network latency) it is the
// deterministic "ground truth"; with larger Q it trades accuracy for speed.
type Fixed struct {
	Q simtime.Duration
}

// First implements Policy.
func (f Fixed) First() simtime.Duration { return f.Q }

// Next implements Policy.
func (f Fixed) Next(Feedback) simtime.Duration { return f.Q }

// Name implements Policy.
func (f Fixed) Name() string { return "Q=" + f.Q.String() }

// Adaptive is Algorithm 1 of the paper: the dynamic quantum.
//
//	Q = minQ
//	repeat
//	    if np == 0 { Q *= Inc } else { Q *= Dec }
//	    clamp Q to [minQ, maxQ]
//	until end of simulation
//
// Inc is a small growth factor (the paper's best configurations use 1.03 and
// 1.05); Dec is a strong decay (0.02 ≈ 1/sqrt(maxQ/minQ) for the 1µs:1000µs
// range), so the quantum collapses to near minQ within one or two quanta of
// traffic and needs hundreds of silent quanta to grow back.
type Adaptive struct {
	Min, Max simtime.Duration
	Inc, Dec float64

	// q is the current quantum as a float so sub-nanosecond growth per step
	// is not lost to integer truncation.
	q float64
}

// NewAdaptive returns an Adaptive policy with the given bounds and factors.
// It panics on a configuration Validate rejects: in a program that is a
// programming error. Parameters that arrive from outside (a flag) go
// through Validate first — experiments.ParsePolicy does.
func NewAdaptive(min, max simtime.Duration, inc, dec float64) *Adaptive {
	a := &Adaptive{Min: min, Max: max, Inc: inc, Dec: dec}
	if err := a.Validate(); err != nil {
		panic(fmt.Errorf("quantum: adaptive %w", err))
	}
	a.q = float64(min)
	return a
}

// Validate reports a configuration Algorithm 1 cannot execute, naming the
// field first: Inc <= 1 would never grow, Dec outside (0,1) never shrink,
// and Min must be positive and not exceed Max. The factor comparisons are
// written so that NaN fails them.
func (a *Adaptive) Validate() error {
	switch {
	case a.Min <= 0:
		return fmt.Errorf("min: must be positive, got %v", a.Min)
	case a.Max < a.Min:
		return fmt.Errorf("max: %v is below min %v", a.Max, a.Min)
	case !(a.Inc > 1):
		return fmt.Errorf("inc: must exceed 1, got %v", a.Inc)
	case !(a.Dec > 0 && a.Dec < 1):
		return fmt.Errorf("dec: must be in (0,1), got %v", a.Dec)
	}
	return nil
}

// RecommendedDec returns the paper's suggested decrease factor for a quantum
// range: a value near 1/sqrt(maxQ/minQ), which collapses the quantum from
// maxQ to minQ in about two quanta.
func RecommendedDec(min, max simtime.Duration) float64 {
	if min <= 0 || max <= min {
		return 0.02
	}
	return 1 / math.Sqrt(float64(max)/float64(min))
}

// First implements Policy. Algorithm 1 starts at the minimum quantum.
func (a *Adaptive) First() simtime.Duration {
	a.q = float64(a.Min)
	return a.Min
}

// Next implements Policy: one step of Algorithm 1.
func (a *Adaptive) Next(fb Feedback) simtime.Duration {
	if fb.Packets == 0 {
		a.q *= a.Inc
	} else {
		a.q *= a.Dec
	}
	if a.q < float64(a.Min) {
		a.q = float64(a.Min)
	}
	if a.q > float64(a.Max) {
		a.q = float64(a.Max)
	}
	return simtime.Duration(a.q)
}

// Name implements Policy. The label is "dyn <min>:<max> <inc>:<dec>" with
// durations in simtime.Duration notation — e.g. "dyn 1µs:1ms 1.03:0.02"
// for a 1µs..1000µs range (the paper's own labels abbreviate the same
// parameters as "dyn 1k 1.03:0.02"). Result and trace labels key off this
// exact format; TestAdaptiveNameFormat pins it.
func (a *Adaptive) Name() string {
	return fmt.Sprintf("dyn %s:%s %.2f:%.2f", a.Min, a.Max, a.Inc, a.Dec)
}

// Current returns the quantum the policy would issue now, without stepping.
func (a *Adaptive) Current() simtime.Duration {
	if a.q == 0 {
		return a.Min
	}
	return simtime.Duration(a.q)
}
