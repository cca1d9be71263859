// Package host models the machine that executes the simulators.
//
// The paper's speedups and stragglers are phenomena of the *host*: each node
// simulator advances guest time at a fluctuating host-dependent speed, the
// barrier at each quantum boundary costs real time, and whether a packet is
// a straggler depends on how far the destination simulator has raced ahead
// in host time. The paper runs on real Opteron hosts; this package replaces
// the real host with a deterministic model so every experiment is exactly
// reproducible (the substitution is documented in DESIGN.md §1).
//
// The model: simulating one guest nanosecond costs BusySlowdown (or
// IdleSlowdown, when the guest idles) host nanoseconds, multiplied by a
// per-node speed multiplier that is redrawn every JitterPeriod of guest time
// from a lognormal distribution with mean 1. The multiplier depends only on
// (seed, node, window index), so host/guest conversions are stateless and
// replayable from any point.
package host

import (
	"fmt"
	"math"

	"clustersim/internal/simtime"
)

// Params configures the host model.
type Params struct {
	// BusySlowdown is host nanoseconds needed to simulate one guest
	// nanosecond of active execution. Full-system simulators with timing
	// models typically run 10–100x slower than native.
	BusySlowdown float64
	// IdleSlowdown is host nanoseconds per guest nanosecond while the guest
	// idles (the emulator fast-paths the idle loop).
	IdleSlowdown float64
	// JitterSigma is the lognormal sigma of the per-window speed
	// multiplier. Zero disables jitter (a perfectly homogeneous host).
	JitterSigma float64
	// JitterPeriod is the guest-time length of one jitter window. Short
	// quanta see the full node-to-node spread ("the slowest node sets the
	// pace"); long quanta average it out.
	JitterPeriod simtime.Duration
	// BarrierCost is the host cost of one quantum barrier: controller
	// round-trip, process wake-up, scheduler latency.
	BarrierCost simtime.Duration
	// PacketTransit is the host latency for a packet to travel simulator →
	// controller → destination simulator.
	PacketTransit simtime.Duration
	// PacketHostCost is the controller CPU occupancy per routed packet; a
	// quantum's barrier cannot release before the controller has processed
	// the quantum's packets.
	PacketHostCost simtime.Duration
	// Seed drives the jitter streams.
	Seed uint64
	// Sampling, when non-nil, makes each node simulator alternate between
	// detailed timing simulation and fast functional emulation — the
	// "sampling" technique the paper's §7 proposes combining with adaptive
	// synchronization (Falcón et al., ISPASS 2007). Only the host speed
	// changes; guest-visible timing still comes from the workload model.
	Sampling *Sampling
}

// Sampling describes a periodic detail/fast-forward schedule shared by all
// nodes (as the ISPASS'07 sampled simulator does).
type Sampling struct {
	// Period is the guest-time length of one sampling cycle.
	Period simtime.Duration
	// DetailFraction is the fraction of each cycle simulated with the full
	// timing model (BusySlowdown); the rest runs at FastSlowdown.
	DetailFraction float64
	// FastSlowdown is the host cost per guest nanosecond during
	// fast-forward (functional emulation is typically ~10x faster).
	FastSlowdown float64
}

// Validate reports Sampling configuration errors.
func (s *Sampling) Validate() error {
	switch {
	case s.Period <= 0:
		return fmt.Errorf("host: sampling Period must be positive, got %v", s.Period)
	case !(s.DetailFraction >= 0 && s.DetailFraction <= 1):
		return fmt.Errorf("host: sampling DetailFraction must be in [0,1], got %v", s.DetailFraction)
	case !positiveFinite(s.FastSlowdown):
		return fmt.Errorf("host: sampling FastSlowdown must be positive and finite, got %v", s.FastSlowdown)
	}
	return nil
}

// positiveFinite rejects NaN and +Inf along with v <= 0: NaN compares false
// against every bound, and either turns into garbage host time once a cost is
// rounded to a simtime.Duration.
func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// DefaultParams returns a host calibrated so that the paper's headline
// shapes hold: a ~65x speedup for Q=1000µs over Q=1µs on silent workloads,
// ~8x for Q=10µs, with jitter that penalizes short quanta more as the node
// count grows.
func DefaultParams() Params {
	return Params{
		BusySlowdown: 20,
		// Idle guest code (HLT / blocking-read loops) is fast-pathed by
		// full-system emulators, so blocked receivers race ahead to the
		// quantum boundary — the precondition for the paper's Figure 3(d)
		// "latency snaps to next quantum" behaviour on chained traffic.
		IdleSlowdown:   0.2,
		JitterSigma:    0.22,
		JitterPeriod:   10 * simtime.Microsecond,
		BarrierCost:    1300 * simtime.Microsecond,
		PacketTransit:  25 * simtime.Microsecond,
		PacketHostCost: 2 * simtime.Microsecond,
		Seed:           1,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case !positiveFinite(p.BusySlowdown):
		return fmt.Errorf("host: BusySlowdown must be positive and finite, got %v", p.BusySlowdown)
	case !positiveFinite(p.IdleSlowdown):
		return fmt.Errorf("host: IdleSlowdown must be positive and finite, got %v", p.IdleSlowdown)
	case !(p.JitterSigma >= 0) || math.IsInf(p.JitterSigma, 1):
		return fmt.Errorf("host: JitterSigma must be non-negative and finite, got %v", p.JitterSigma)
	case p.JitterPeriod <= 0:
		return fmt.Errorf("host: JitterPeriod must be positive, got %v", p.JitterPeriod)
	case p.BarrierCost < 0:
		return fmt.Errorf("host: BarrierCost must be non-negative, got %v", p.BarrierCost)
	case p.PacketTransit < 0:
		return fmt.Errorf("host: PacketTransit must be non-negative, got %v", p.PacketTransit)
	case p.PacketHostCost < 0:
		// A negative per-packet cost would release the barrier before the
		// slowest node reached it and make Stats.HostBarrier shrink.
		return fmt.Errorf("host: PacketHostCost must be non-negative, got %v", p.PacketHostCost)
	}
	if p.Sampling != nil {
		return p.Sampling.Validate()
	}
	return nil
}

// Model converts between guest progress and host cost for every node.
type Model struct {
	p Params
	// memo caches each node's block of speed draws around its most recent
	// window. The draw is a pure function of (seed, node, window), so the
	// cache returns the exact float64 the draw would produce — results are
	// bit-identical with or without it. Quanta are typically much shorter
	// than JitterPeriod, so consecutive conversions hit the same window
	// almost every time, and the next drawBlock-1 windows are drawn with it.
	// Sized by Reserve; nodes beyond the reservation draw afresh each time.
	memo []speedMemo
	// shared, when non-nil, is where a draw the memo misses is looked up
	// before it is computed (Share).
	shared *Speeds
}

// speedMemo is one node's cached draws: mult is window's multiplier, and
// block holds the aligned drawBlock windows around it, from
// window&^(drawBlock-1) on. window is -1 until the first draw; a block is
// only reused at windows >= 0, so the empty one is never read. [lo, hi) is
// the window's guest extent when a conversion inside it is a single product —
// no sampling schedule — and stays empty otherwise, so HostCost can test "one
// window, and this one" with two comparisons.
type speedMemo struct {
	window int64
	lo, hi simtime.Guest
	mult   float64
	block  [drawBlock]float64
}

// NewModel builds a Model; it panics on invalid Params (configuration is a
// programming error, validated up-front by the engine).
func NewModel(p Params) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{p: p}
}

// Reserve pre-sizes the per-node speed cache for nodes. Call once before a
// run; conversions for nodes outside the reservation stay correct but
// uncached. Each node's cache entry is only touched by conversions for that
// node, so the engine's discipline — one goroutine steps one node, with a
// happens-before edge at each barrier — makes concurrent per-node walks
// safe without locks.
func (m *Model) Reserve(nodes int) {
	if nodes <= len(m.memo) {
		return
	}
	memo := make([]speedMemo, nodes)
	for i := range memo {
		memo[i].window = -1
	}
	copy(memo, m.memo)
	m.memo = memo
}

// Share makes the model look its speed draws up in s, a table other models
// of the same sweep fill and read concurrently, before computing them. A
// table drawn for another seed or sigma is ignored: the model then computes
// every draw itself, exactly as without one.
func (m *Model) Share(s *Speeds) {
	if s != nil && s.seed == m.p.Seed && s.sigma == m.p.JitterSigma {
		m.shared = s
	}
}

// Params returns the model's configuration.
func (m *Model) Params() Params { return m.p }

// Speed returns the speed multiplier for a node within one jitter window.
// Larger multiplier = slower simulation (more host ns per guest ns). The
// draw is a pure function of (seed, node, window) — no state — so host/guest
// conversions can replay from any point; the per-node memo and the shared
// table only short-circuit recomputation of the identical value.
func (m *Model) Speed(node int, window int64) float64 {
	if node >= len(m.memo) {
		var one [1]float64 // an unreserved node draws a block of one
		m.draws(node, window, one[:])
		return one[0]
	}
	mo := &m.memo[node]
	if mo.window != window {
		base := window &^ (drawBlock - 1)
		if mo.window&^(drawBlock-1) != base || mo.window < 0 {
			m.draws(node, base, mo.block[:])
		}
		mo.window, mo.mult = window, mo.block[window-base]
		if m.p.Sampling == nil {
			per := simtime.Guest(m.p.JitterPeriod)
			mo.lo = simtime.Guest(window) * per
			mo.hi = mo.lo + per
		}
	}
	return mo.mult
}

// draws writes the multipliers of node's windows w0, w0+1, … into out, which
// lies inside one aligned block of drawBlock windows: from the shared table
// when there is one, computed otherwise.
func (m *Model) draws(node int, w0 int64, out []float64) {
	switch {
	case m.p.JitterSigma == 0:
		for i := range out {
			out[i] = 1
		}
	case m.shared != nil:
		m.shared.fill(node, w0, out)
	default:
		lognormals(m.p.Seed, m.p.JitterSigma, node, w0, out)
	}
}

// Mode distinguishes how the guest spends time, which determines the host
// cost rate.
type Mode int

// Guest execution modes.
const (
	Busy Mode = iota // executing workload / protocol code
	Idle             // guest OS idle loop (blocked in recv, sleeping)
)

func (mo Mode) String() string {
	if mo == Busy {
		return "busy"
	}
	return "idle"
}

// slowdownAt returns the host cost rate (before jitter) for mode at guest
// position g: busy time is simulated at full detail or fast-forwarded per
// the sampling schedule; idle simulation is always the fast path.
func (m *Model) slowdownAt(mode Mode, g simtime.Guest) float64 {
	if s := m.p.Sampling; s != nil && mode == Busy {
		phase := simtime.Duration(int64(g) % int64(s.Period))
		if float64(phase) >= s.DetailFraction*float64(s.Period) {
			return s.FastSlowdown
		}
	}
	return m.Rate(mode)
}

// Rate returns the host cost rate of mode (before jitter) where no sampling
// schedule applies: in every window UniformUntil reports.
func (m *Model) Rate(mode Mode) float64 {
	if mode == Idle {
		return m.p.IdleSlowdown
	}
	return m.p.BusySlowdown
}

// segEnd returns the next integration boundary after g: end, the end of g's
// jitter window, or the next sampling phase change if that comes first.
func (m *Model) segEnd(g, end simtime.Guest) simtime.Guest {
	if s := m.p.Sampling; s != nil {
		period := simtime.Guest(s.Period)
		phase := g % period
		detail := simtime.Guest(s.DetailFraction * float64(s.Period))
		var next simtime.Guest
		if phase < detail {
			next = g - phase + detail
		} else {
			next = g - phase + period
		}
		if next > g {
			end = simtime.MinGuest(end, next)
		}
	}
	return end
}

// UniformUntil returns the guest time up to which conversions starting at or
// after g are one product of length, rate and a single speed draw — the end of
// g's jitter window w, whose every interval of length d and mode costs
// Cost(d, Rate(mode), Speed(node, w)) — or g itself and w = -1 under a
// sampling schedule, whose phases change the rate mid-window.
func (m *Model) UniformUntil(g simtime.Guest) (until simtime.Guest, w int64) {
	if m.p.Sampling != nil {
		return g, -1
	}
	per := simtime.Guest(m.p.JitterPeriod)
	w = int64(g / per)
	return simtime.Guest(w+1) * per, w
}

// Cost rounds the host time of d guest ns at rate and multiplier mult: every
// conversion inside one jitter window is this one product, bit for bit.
func Cost(d simtime.Duration, rate, mult float64) simtime.Duration {
	return simtime.Duration(float64(d)*rate*mult + 0.5)
}

// HostCost returns the host time needed for node to advance guest time from
// g0 to g1 in the given mode, integrating across jitter windows and sampling
// phases.
func (m *Model) HostCost(node int, g0, g1 simtime.Guest, mode Mode) simtime.Duration {
	if g1 <= g0 {
		return 0
	}
	// Single-window fast path: quanta are typically much shorter than
	// JitterPeriod, so most conversions never cross an integration boundary.
	// This is the loop below run for exactly one iteration — the same
	// float64 product, the same rounding — just without the loop. Sampling
	// schedules add boundaries segEnd knows about, so they take the general
	// loop. Most conversions also land in the window of the one before: the
	// memoised window's bounds then answer without the division that locates
	// it.
	if node < len(m.memo) {
		if mo := &m.memo[node]; mo.lo <= g0 && g1 <= mo.hi {
			return Cost(simtime.Duration(g1-g0), m.slowdownAt(mode, g0), mo.mult)
		}
	}
	per := simtime.Guest(m.p.JitterPeriod)
	w := int64(g0 / per)
	end := simtime.Guest(w+1) * per
	if m.p.Sampling == nil && g1 <= end {
		return Cost(simtime.Duration(g1-g0), m.slowdownAt(mode, g0), m.Speed(node, w))
	}
	var total float64
	for g := g0; g < g1; {
		seg := simtime.MinGuest(m.segEnd(g, end), g1)
		total += float64(seg-g) * m.slowdownAt(mode, g) * m.Speed(node, w)
		if g = seg; g == end {
			w, end = w+1, end+per
		}
	}
	return simtime.Duration(total + 0.5)
}

// GuestAt returns how far node's guest clock has advanced from g0 after
// spending h host time in the given mode, capped at gLimit. It is the
// inverse of HostCost and is used to locate a simulator's guest position at
// a packet's host arrival instant.
func (m *Model) GuestAt(node int, g0 simtime.Guest, h simtime.Duration, mode Mode, gLimit simtime.Guest) simtime.Guest {
	if h <= 0 || g0 >= gLimit {
		return simtime.MinGuest(g0, gLimit)
	}
	per := simtime.Guest(m.p.JitterPeriod)
	w := int64(g0 / per)
	end := simtime.Guest(w+1) * per
	budget := float64(h)
	for g := g0; g < gLimit; {
		seg := simtime.MinGuest(m.segEnd(g, end), gLimit)
		rate := m.slowdownAt(mode, g) * m.Speed(node, w) // host ns per guest ns
		segCost := float64(seg-g) * rate
		if segCost >= budget {
			return g + simtime.Guest(budget/rate)
		}
		budget -= segCost
		if g = seg; g == end {
			w, end = w+1, end+per
		}
	}
	return gLimit
}
