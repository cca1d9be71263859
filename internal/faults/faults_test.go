package faults

import (
	"math"
	"strings"
	"testing"

	"clustersim/internal/rng"
	"clustersim/internal/simtime"
)

func TestDecideDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, Default: Link{Loss: 0.2, Dup: 0.1, Jitter: 5 * simtime.Microsecond}}
	for id := uint64(0); id < 2000; id++ {
		a := p.Decide(id, 1, 2, simtime.Guest(id))
		b := p.Decide(id, 1, 2, simtime.Guest(id))
		if a != b {
			t.Fatalf("frame %d: Decide not deterministic: %+v vs %+v", id, a, b)
		}
	}
}

func TestDecideRates(t *testing.T) {
	p := &Plan{Seed: 42, Default: Link{Loss: 0.3, Dup: 0.2, Jitter: 10 * simtime.Microsecond}}
	const n = 20000
	drops, dups := 0, 0
	for id := uint64(0); id < n; id++ {
		d := p.Decide(id, 0, 1, 0)
		if d.Drop {
			drops++
			if d.Dup || d.Delay != 0 || d.DupDelay != 0 {
				t.Fatalf("frame %d: dropped frame carries other outcomes: %+v", id, d)
			}
			continue
		}
		if d.Delay < 0 || d.Delay > p.Default.Jitter {
			t.Fatalf("frame %d: delay %v outside [0, %v]", id, d.Delay, p.Default.Jitter)
		}
		if d.Dup {
			dups++
			if d.DupDelay < 0 || d.DupDelay > p.Default.Jitter {
				t.Fatalf("frame %d: dup delay %v outside [0, %v]", id, d.DupDelay, p.Default.Jitter)
			}
		}
	}
	if got := float64(drops) / n; math.Abs(got-0.3) > 0.02 {
		t.Errorf("drop rate %.3f, want ~0.30", got)
	}
	// Dup draws happen only on surviving frames.
	if got := float64(dups) / float64(n-drops); math.Abs(got-0.2) > 0.02 {
		t.Errorf("dup rate %.3f, want ~0.20", got)
	}
}

// A unit draw reaches exactly 1 for the top hashes; a probability of 1 (or
// more) still acts on it, one below 1 does not.
func TestOccursAtUnitOne(t *testing.T) {
	u := rng.Unit(math.MaxUint64)
	if u != 1 {
		t.Fatalf("premise: rng.Unit of the top hash is %v, want exactly 1", u)
	}
	for _, c := range []struct {
		prob float64
		want bool
	}{{1, true}, {1.5, true}, {math.Nextafter(1, 0), false}, {0.5, false}, {0, false}} {
		if got := occurs(c.prob, u); got != c.want {
			t.Errorf("occurs(%v, 1) = %v, want %v", c.prob, got, c.want)
		}
	}
	if !occurs(math.Nextafter(1, 0), rng.Unit(0)) {
		t.Error("occurs(1-ε, smallest draw) = false, want true")
	}
}

// Loss 1 drops every frame and Dup 1 duplicates every frame.
func TestDecideAtProbabilityOne(t *testing.T) {
	lossy := &Plan{Seed: 5, Default: Link{Loss: 1}}
	dupy := &Plan{Seed: 5, Default: Link{Dup: 1, Jitter: simtime.Microsecond}}
	for id := uint64(0); id < 20000; id++ {
		if d := lossy.Decide(id, 0, 1, 0); !d.Drop {
			t.Fatalf("frame %d survived Loss 1: %+v", id, d)
		}
		if d := dupy.Decide(id, 0, 1, 0); d.Drop || !d.Dup {
			t.Fatalf("frame %d not duplicated at Dup 1: %+v", id, d)
		}
	}
}

func TestDecideSeedIndependence(t *testing.T) {
	a := &Plan{Seed: 1, Default: Link{Loss: 0.5}}
	b := &Plan{Seed: 2, Default: Link{Loss: 0.5}}
	same := 0
	const n = 4096
	for id := uint64(0); id < n; id++ {
		if a.Decide(id, 0, 1, 0).Drop == b.Decide(id, 0, 1, 0).Drop {
			same++
		}
	}
	if same == n {
		t.Fatal("two seeds produced identical drop sequences")
	}
}

func TestDownWindow(t *testing.T) {
	p := &Plan{Default: Link{Down: []Window{{Start: 100, End: 200}}}}
	cases := []struct {
		t    simtime.Guest
		drop bool
	}{{99, false}, {100, true}, {150, true}, {199, true}, {200, false}}
	for _, c := range cases {
		if got := p.Decide(1, 0, 1, c.t).Drop; got != c.drop {
			t.Errorf("tSend=%v: drop=%v, want %v", c.t, got, c.drop)
		}
	}
}

func TestPerLinkOverride(t *testing.T) {
	p := &Plan{
		Default: Link{},
		Links:   map[LinkKey]Link{{Src: 0, Dst: 1}: {Down: []Window{{0, simtime.GuestInfinity}}}},
	}
	if !p.Decide(1, 0, 1, 0).Drop {
		t.Error("overridden link 0->1 should drop")
	}
	if p.Decide(1, 1, 0, 0).Drop {
		t.Error("reverse link 1->0 uses the clean default and should deliver")
	}
}

func TestSlowdown(t *testing.T) {
	p := &Plan{NodeSlowdown: map[int]float64{3: 2.5}}
	if got := p.Slowdown(3); got != 2.5 {
		t.Errorf("Slowdown(3) = %v, want 2.5", got)
	}
	if got := p.Slowdown(0); got != 1 {
		t.Errorf("Slowdown(0) = %v, want 1", got)
	}
	if !p.HasSlowdown() {
		t.Error("HasSlowdown() = false with node 3 at 2.5")
	}
	if (&Plan{}).HasSlowdown() {
		t.Error("empty plan reports HasSlowdown")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("loss=0.02, dup=0.001, jitter=5us, down=10ms-12ms, slow=3:2.5", 99)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 99 {
		t.Errorf("seed %d, want 99", p.Seed)
	}
	if p.Default.Loss != 0.02 || p.Default.Dup != 0.001 {
		t.Errorf("loss/dup = %v/%v", p.Default.Loss, p.Default.Dup)
	}
	if p.Default.Jitter != 5*simtime.Microsecond {
		t.Errorf("jitter = %v", p.Default.Jitter)
	}
	want := Window{Start: simtime.Guest(10 * simtime.Millisecond), End: simtime.Guest(12 * simtime.Millisecond)}
	if len(p.Default.Down) != 1 || p.Default.Down[0] != want {
		t.Errorf("down = %+v", p.Default.Down)
	}
	if p.NodeSlowdown[3] != 2.5 {
		t.Errorf("slowdown = %+v", p.NodeSlowdown)
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	p, err := Parse("  ", 1)
	if err != nil || p != nil {
		t.Fatalf("Parse(empty) = %v, %v; want nil, nil", p, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"loss", "loss=x", "loss=1.5", "dup=-1", "jitter=bogus",
		"down=10ms", "down=x-y", "slow=3", "slow=a:2", "slow=3:0", "mystery=1",
	} {
		if _, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan invalid: %v", err)
	}
	bad := &Plan{Links: map[LinkKey]Link{{0, 1}: {Loss: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("loss=1 link passed validation")
	}
	bad = &Plan{Default: Link{Down: []Window{{200, 100}}}}
	if err := bad.Validate(); err == nil {
		t.Error("inverted down window passed validation")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := &Plan{
		Seed:         5,
		Default:      Link{Loss: 0.1},
		Links:        map[LinkKey]Link{{1, 0}: {Dup: 0.2}, {0, 1}: {Loss: 0.3}},
		NodeSlowdown: map[int]float64{2: 1.5, 1: 2},
	}
	b := &Plan{
		Seed:         5,
		Default:      Link{Loss: 0.1},
		Links:        map[LinkKey]Link{{0, 1}: {Loss: 0.3}, {1, 0}: {Dup: 0.2}},
		NodeSlowdown: map[int]float64{1: 2, 2: 1.5},
	}
	if a.Key() != b.Key() {
		t.Errorf("map order changed the key:\n%s\n%s", a.Key(), b.Key())
	}
	if a.Key() == (&Plan{Seed: 6, Default: Link{Loss: 0.1}}).Key() {
		t.Error("different plans share a key")
	}
	var nilPlan *Plan
	if nilPlan.Key() != "" {
		t.Errorf("nil plan key %q, want empty", nilPlan.Key())
	}
}

// FuzzFaultPlan drives the fault-decision function with arbitrary inputs and
// checks its invariants: purity (same inputs, same outcome), delay bounds,
// drop exclusivity, and down-window containment.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint64(1), uint64(42), 0, 1, int64(0), 0.1, 0.1, int64(5000), int64(100), int64(200))
	f.Add(uint64(9), uint64(7), 3, 2, int64(150), 0.9, 0.0, int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, seed, frameID uint64, src, dst int, tSendNs int64,
		loss, dup float64, jitterNs, downStart, downEnd int64) {
		if math.IsNaN(loss) || loss < 0 || loss >= 1 || math.IsNaN(dup) || dup < 0 || dup > 1 {
			t.Skip()
		}
		if jitterNs < 0 || downEnd < downStart {
			t.Skip()
		}
		p := &Plan{
			Seed: seed,
			Default: Link{
				Loss: loss, Dup: dup, Jitter: simtime.Duration(jitterNs),
				Down: []Window{{Start: simtime.Guest(downStart), End: simtime.Guest(downEnd)}},
			},
		}
		if err := p.Validate(); err != nil {
			t.Skip()
		}
		tSend := simtime.Guest(tSendNs)
		d := p.Decide(frameID, src, dst, tSend)
		if d != p.Decide(frameID, src, dst, tSend) {
			t.Fatal("Decide is not pure")
		}
		if tSend >= simtime.Guest(downStart) && tSend < simtime.Guest(downEnd) && !d.Drop {
			t.Fatal("send inside a down window was not dropped")
		}
		if d.Drop && (d.Dup || d.Delay != 0 || d.DupDelay != 0) {
			t.Fatalf("dropped frame carries other outcomes: %+v", d)
		}
		if d.Delay < 0 || d.Delay > p.Default.Jitter {
			t.Fatalf("delay %v outside [0, %v]", d.Delay, p.Default.Jitter)
		}
		if d.DupDelay < 0 || d.DupDelay > p.Default.Jitter {
			t.Fatalf("dup delay %v outside [0, %v]", d.DupDelay, p.Default.Jitter)
		}
		if !d.Dup && d.DupDelay != 0 {
			t.Fatalf("non-duplicated frame carries dup delay: %+v", d)
		}
	})
}

// TestValidateErrorDeterministic pins the fix for the map-iteration-order
// bug: a plan with several invalid entries must report the same first error
// on every call. The invalid links are chosen so sorted (src, dst) order
// differs from any likely insertion or hash order.
func TestValidateErrorDeterministic(t *testing.T) {
	p := &Plan{
		Links: map[LinkKey]Link{
			{9, 0}: {Loss: 1.5},
			{3, 7}: {Loss: 2},
			{0, 2}: {Loss: -1},
			{5, 5}: {Dup: 3},
		},
		NodeSlowdown: map[int]float64{4: -1, 1: 0, 8: -2},
	}
	first := p.Validate()
	if first == nil {
		t.Fatal("plan with invalid entries passed validation")
	}
	// Sorted order puts link 0->2 ahead of every other invalid entry.
	if !strings.Contains(first.Error(), "link 0->2") {
		t.Fatalf("first error = %q, want the lowest-ordered link 0->2", first)
	}
	for i := 0; i < 100; i++ {
		if err := p.Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("iteration %d: error %q differs from first %q", i, err, first)
		}
	}

	// Slowdown-only plans must be deterministic too.
	q := &Plan{NodeSlowdown: map[int]float64{4: -1, 1: 0, 8: -2}}
	sfirst := q.Validate()
	if sfirst == nil || !strings.Contains(sfirst.Error(), "node 1") {
		t.Fatalf("first slowdown error = %v, want node 1 (lowest id)", sfirst)
	}
	for i := 0; i < 100; i++ {
		if err := q.Validate(); err == nil || err.Error() != sfirst.Error() {
			t.Fatalf("iteration %d: slowdown error %q differs from %q", i, err, sfirst)
		}
	}
}
