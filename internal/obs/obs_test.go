package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"clustersim/internal/simtime"
)

func sampleRun(o Observer) {
	o.RunStart(RunInfo{Nodes: 2, Policy: "fixed 1µs", MaxGuest: simtime.Guest(simtime.Millisecond)})
	o.QuantumStart(0, 0, 10*simtime.Microsecond, 0)
	o.QuantumPartition(0, &Partitioning{Part: []int32{0, 1}, Partitions: 2, Loose: 2})
	o.NodePhase(0, PhaseBusy, 0, simtime.Guest(5*simtime.Microsecond), 0, simtime.Host(100*simtime.Microsecond))
	o.NodePhase(1, PhaseIdle, 0, simtime.Guest(10*simtime.Microsecond), 0, simtime.Host(2*simtime.Microsecond))
	o.Packet(PacketRecord{
		SendGuest: simtime.Guest(simtime.Microsecond),
		Ideal:     simtime.Guest(2 * simtime.Microsecond),
		Arrival:   simtime.Guest(3 * simtime.Microsecond),
		Src:       0, Dst: 1, Size: 1500, Straggler: true,
	})
	o.QuantumEnd(QuantumRecord{
		Index: 0, Start: 0, Q: 10 * simtime.Microsecond,
		Packets: 1, Stragglers: 1,
		HostStart:    0,
		BarrierStart: simtime.Host(100 * simtime.Microsecond),
		HostEnd:      simtime.Host(110 * simtime.Microsecond),
	})
	o.NodePhase(0, PhaseDone, simtime.Guest(10*simtime.Microsecond), simtime.Guest(10*simtime.Microsecond),
		simtime.Host(110*simtime.Microsecond), simtime.Host(110*simtime.Microsecond))
	o.RunEnd(RunSummary{
		GuestTime: simtime.Guest(10 * simtime.Microsecond),
		HostEnd:   simtime.Host(110 * simtime.Microsecond),
		Quanta:    1,
	})
}

// TestChromeTracerRoundTrip drives every hook and checks the emitted JSON is
// a well-formed Chrome trace-event array.
func TestChromeTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf)
	sampleRun(tr)
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	phases := map[string]int{}
	for i, ev := range events {
		phases[ev.Ph]++
		switch ev.Ph {
		case "M", "X", "B", "E", "i", "C":
		default:
			t.Errorf("event %d has unexpected phase %q", i, ev.Ph)
		}
		if ev.PID != tracePID {
			t.Errorf("event %d has pid %d", i, ev.PID)
		}
		if ev.Name == "" {
			t.Errorf("event %d has no name", i)
		}
	}
	for _, ph := range []string{"M", "X", "B", "E", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace: %v", ph, phases)
		}
	}
	// The counter tracks must carry numeric values per quantum.
	counters := map[string]bool{}
	for _, ev := range events {
		if ev.Ph != "C" {
			continue
		}
		counters[ev.Name] = true
		if len(ev.Args) == 0 {
			t.Errorf("counter %q has no args", ev.Name)
		}
		//simlint:maporder per-entry type check; no ordered output
		for k, v := range ev.Args {
			if _, ok := v.(float64); !ok {
				t.Errorf("counter %q arg %q is %T, want number", ev.Name, k, v)
			}
		}
	}
	for _, want := range []string{"quantum_size", "traffic", "loose_nodes"} {
		if !counters[want] {
			t.Errorf("missing counter track %q (have %v)", want, counters)
		}
	}
	// The busy segment must carry its host-time extent in microseconds.
	for _, ev := range events {
		if ev.Ph == "X" && ev.Name == "busy" {
			if ev.Dur != 100 {
				t.Errorf("busy segment dur = %v µs, want 100", ev.Dur)
			}
			if ev.TID != nodeTID(0) {
				t.Errorf("busy segment on tid %d, want %d", ev.TID, nodeTID(0))
			}
		}
	}
}

// TestChromeTracerCloseIdempotent: Close after RunEnd must not corrupt the
// array, and an empty trace must still be valid JSON.
func TestChromeTracerCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChromeTracer(&buf)
	sampleRun(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("double Close corrupted the trace: %v", err)
	}

	var empty bytes.Buffer
	tr2 := NewChromeTracer(&empty)
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	var none []traceEvent
	if err := json.Unmarshal(empty.Bytes(), &none); err != nil {
		t.Fatalf("empty trace invalid: %v (%q)", err, empty.String())
	}
	if len(none) != 0 {
		t.Fatalf("empty trace has %d events", len(none))
	}
}

// TestHistogramBuckets: Buckets walks the occupied power-of-two buckets in
// ascending order, each a half-open [lo, hi) holding its samples, the ladder
// mirrored across zero; their counts sum to Summary's.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-6, 0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if count, sum, min, max := h.Summary(); count != 7 || sum != 1004 || min != -6 || max != 1000 {
		t.Fatalf("Summary() = %d, %d, %d, %d; want 7 samples summing to 1004 in [-6, 1000]", count, sum, min, max)
	}
	type bucket struct{ lo, hi, count int64 }
	var got []bucket
	h.Buckets(func(lo, hi, count int64) { got = append(got, bucket{lo, hi, count}) })
	want := []bucket{{-7, -3, 1}, {0, 1, 1}, {1, 2, 1}, {2, 4, 2}, {4, 8, 1}, {512, 1024, 1}}
	if !slices.Equal(got, want) {
		t.Errorf("Buckets walked %v, want %v", got, want)
	}
}

func TestProgressReports(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	sampleRun(p)
	out := buf.String()
	if !strings.Contains(out, "finished") {
		t.Fatalf("no final report: %q", out)
	}
	if !strings.Contains(out, "packets 1 | stragglers 1\n") {
		t.Errorf("expected the packet and straggler counts in %q", out)
	}
	if !strings.Contains(out, "quiet 0 |") {
		t.Errorf("expected the quiet-quantum count in the final line %q", out)
	}
}

// TestQuietQuantaPublished: the quiet-quantum and quiet-node-quantum counts
// arrive only in the RunSummary; the progress reporter prints them in the
// final line.
func TestQuietQuantaPublished(t *testing.T) {
	var buf bytes.Buffer
	NewProgress(&buf).RunEnd(RunSummary{Quanta: 4, QuietQuanta: 3, QuietNodeQuanta: 29})
	if out := buf.String(); !strings.Contains(out, "quiet 3 | quiet node-quanta 29 |") {
		t.Errorf("final progress line lacks the quiet counts: %q", out)
	}
}

// TestProgressEngagedFraction: the status line reports the share of quanta
// whose partitioning left every node loose.
func TestProgressEngagedFraction(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	sampleRun(p)
	if out := buf.String(); !strings.Contains(out, "engaged 100%") {
		t.Errorf("expected the engaged fraction in %q", out)
	}
}

// countObs counts calls, for Multi fan-out tests.
type countObs struct {
	Base
	quanta int
}

func (c *countObs) QuantumEnd(QuantumRecord) { c.quanta++ }

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) should be nil")
	}
	a, b := &countObs{}, &countObs{}
	if got := Multi(a, nil); got != a {
		t.Error("Multi(a, nil) should unwrap to a")
	}
	m := Multi(a, b)
	sampleRun(m)
	if a.quanta != 1 || b.quanta != 1 {
		t.Errorf("fan-out missed: a=%d b=%d", a.quanta, b.quanta)
	}
}
