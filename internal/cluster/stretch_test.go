package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/host"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// stretchRun is one run of a configuration, its quiet stretches collapsed or
// each held to k = 1, observed or not.
type stretchRun struct {
	res   *Result
	err   error
	ks    []int    // every stretch's length, from the onStretch probe
	tape  []string // observed: the whole hook stream
	canon []byte   // observed and completed: CanonicalResult
}

// runStretch runs cfg. held vetoes every collapse through the onQuiet hook —
// which answers true, so each quiet quantum still takes the quiet pass, alone:
// the engine's old quiet quantum.
func runStretch(cfg Config, observed, held bool) stretchRun {
	var r stretchRun
	tape, rec := &recorder{}, &obs.Recorder{}
	if observed {
		cfg.Observer = obs.Multi(tape, rec)
	}
	if held {
		cfg.onQuiet = func(int, int) bool { return true }
	}
	cfg.onStretch = func(k int) { r.ks = append(r.ks, k) }
	r.res, r.err = Run(cfg)
	if observed {
		r.tape = tape.events
		if r.err == nil {
			r.canon = CanonicalResult(r.res, rec)
		}
	}
	return r
}

// stretchTotals counts the quiet quanta of the stretches ks, and those of them
// that ran in a stretch longer than one.
func stretchTotals(ks []int) (total, collapsed int) {
	for _, k := range ks {
		total += k
		if k > 1 {
			collapsed += k
		}
	}
	return
}

// TestQuietStretchDifferential is the collapse's bit-identity property: a run
// that executes its quiet stretches as one pass times k and a run held to one
// quiet quantum per pass must agree on the unobserved Result, on the observed
// run's fingerprint and whole hook tape, and observing must not change the
// Result — over the behaviour matrix, the 64-node sparse case, and silent
// clusters at quanta that divide a jitter window (1µs, 10µs), straddle its
// edges (3µs) and exceed it (25µs), with a sampling schedule, a per-node host
// slowdown, and a guest limit that falls inside a window.
func TestQuietStretchDifferential(t *testing.T) {
	type variant struct {
		name      string
		cfg       Config
		collapses bool // some stretch must be longer than one quantum
		never     bool // none may be
		aborts    bool
	}
	sampling := &host.Sampling{Period: 7 * simtime.Microsecond, DetailFraction: 0.4, FastSlowdown: 2}
	var variants []variant
	for _, c := range append(fastCases(), sparseCase(15)) {
		variants = append(variants, variant{name: c.name, cfg: c.config()})
		if c.name == "phases-4" { // one case with traffic under a schedule; k = 1 leaves little to compare
			sampled := c.config()
			sampled.Host.Sampling = sampling
			variants = append(variants, variant{name: c.name + "/sampling", cfg: sampled, never: true})
		}
	}
	for _, nodes := range []int{8, 64} {
		for _, q := range []simtime.Duration{1, 3, 10, 25} {
			base := testConfig(nodes, workloads.Silent(300*simtime.Microsecond), fixed(q*simtime.Microsecond))
			name := fmt.Sprintf("silent-%d/Q=%dus", nodes, q)
			collapses := q < 10
			variants = append(variants, variant{name: name, cfg: base, collapses: collapses, never: !collapses})

			sampled := base
			sampled.Host.Sampling = sampling
			variants = append(variants, variant{name: name + "/sampling", cfg: sampled, never: true})

			slowed := base
			slowed.Faults = &faults.Plan{Seed: 3, NodeSlowdown: map[int]float64{1: 2.5, 5: 1.3}}
			variants = append(variants, variant{name: name + "/slow", cfg: slowed, collapses: collapses})

			limited := base
			limited.MaxGuest = simtime.Guest(47500 * simtime.Nanosecond)
			variants = append(variants, variant{name: name + "/maxguest", cfg: limited, collapses: collapses, aborts: true})
		}
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			plain, held := runStretch(v.cfg, false, false), runStretch(v.cfg, false, true)
			seen, heldSeen := runStretch(v.cfg, true, false), runStretch(v.cfg, true, true)

			want := fmt.Sprint(held.err)
			for label, r := range map[string]stretchRun{"collapsed": plain, "collapsed, observed": seen, "held, observed": heldSeen} {
				if got := fmt.Sprint(r.err); got != want {
					t.Fatalf("%s run ended with %q, the held run with %q", label, got, want)
				}
			}
			if v.aborts != errors.Is(held.err, ErrGuestLimit) {
				t.Fatalf("run ended with %v, want a guest-limit abort: %v", held.err, v.aborts)
			}

			total, collapsed := stretchTotals(plain.ks)
			if heldTotal, heldCollapsed := stretchTotals(held.ks); heldCollapsed != 0 || heldTotal != total {
				t.Errorf("held run executed %d quiet quanta, %d of them collapsed; the collapsed run %d", heldTotal, heldCollapsed, total)
			}
			if !reflect.DeepEqual(plain.ks, seen.ks) {
				t.Errorf("observing changed the stretches: %v, unobserved %v", seen.ks, plain.ks)
			}
			if v.collapses && collapsed == 0 || v.never && collapsed > 0 {
				t.Errorf("%d of %d quiet quanta ran in stretches longer than one, want some: %v, want none: %v", collapsed, total, v.collapses, v.never)
			}

			if !reflect.DeepEqual(plain.res, held.res) {
				t.Errorf("unobserved Result differs:\ncollapsed %+v\nheld      %+v", plain.res, held.res)
			}
			if !reflect.DeepEqual(seen.res, plain.res) {
				t.Errorf("observing changed the collapsed run's Result:\nobserved   %+v\nunobserved %+v", seen.res, plain.res)
			}
			if !bytes.Equal(seen.canon, heldSeen.canon) {
				t.Errorf("canonical result differs")
			}
			if len(seen.tape) != len(heldSeen.tape) {
				t.Errorf("hook tape has %d events collapsed, %d held", len(seen.tape), len(heldSeen.tape))
			}
			for i := range seen.tape {
				if i < len(heldSeen.tape) && seen.tape[i] != heldSeen.tape[i] {
					t.Fatalf("hook tape diverges at event %d:\ncollapsed %s\nheld      %s", i, seen.tape[i], heldSeen.tape[i])
				}
			}
		})
	}
}

// TestQuietStretchEngages: at Q = 1µs a silent run's quiet quanta must run ten
// to a pass, one pass per jitter window — but for the windows its first and
// last op cut short — and the summary must still count them one by one.
func TestQuietStretchEngages(t *testing.T) {
	cfg := testConfig(4, workloads.Silent(simtime.Millisecond), fixed(simtime.Microsecond))
	o := &summaryObs{}
	cfg.Observer = o
	quiet, inTens := 0, 0
	cfg.onStretch = func(k int) {
		quiet += k
		if k == 10 {
			inTens += k
		}
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if o.sum.QuietQuanta != quiet || o.sum.QuietNodeQuanta != cfg.Nodes*quiet {
		t.Errorf("RunSummary reports %d quiet quanta and %d node-quanta, the stretches hold %d quanta",
			o.sum.QuietQuanta, o.sum.QuietNodeQuanta, quiet)
	}
	if quiet == 0 || inTens*10 < 9*quiet {
		t.Errorf("%d of %d quiet quanta ran in stretches of 10, want >= 9 in 10", inTens, quiet)
	}
}
