package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clustersim/internal/simtime"
)

func sampleRun(o Observer) {
	o.RunStart(RunInfo{Nodes: 2, Policy: "fixed 1µs", MaxGuest: simtime.Guest(simtime.Millisecond)})
	o.QuantumStart(0, 0, 10*simtime.Microsecond, 0)
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
		FastEligible: true,
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
	for _, want := range []string{"quantum_size", "traffic", "fastpath_eligible"} {
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

func TestRegistryAccumulates(t *testing.T) {
	reg := NewRegistry()
	sampleRun(reg)
	s := reg.Snapshot()
	if got := s.Counters["quanta"]; got != 1 {
		t.Errorf("quanta counter = %d, want 1", got)
	}
	if got := s.Counters["deliveries"]; got != 1 {
		t.Errorf("deliveries counter = %d, want 1", got)
	}
	if got := s.Counters["stragglers"]; got != 1 {
		t.Errorf("stragglers counter = %d, want 1", got)
	}
	if got := s.Counters["host_busy_ns"]; got != int64(100*simtime.Microsecond) {
		t.Errorf("host_busy_ns = %d, want %d", got, int64(100*simtime.Microsecond))
	}
	if got := s.NodeSent[0]; got != 1 {
		t.Errorf("node 0 sent = %d, want 1", got)
	}
	if got := s.NodeRecv[1]; got != 1 {
		t.Errorf("node 1 recv = %d, want 1", got)
	}
	h, ok := s.Histograms["quantum_ns"]
	if !ok || h.Count != 1 {
		t.Fatalf("quantum_ns histogram missing or empty: %+v", h)
	}
	if h.Min != int64(10*simtime.Microsecond) || h.Max != h.Min {
		t.Errorf("quantum_ns min/max = %d/%d", h.Min, h.Max)
	}
	d, ok := s.Histograms["straggler_delay_ns"]
	if !ok || d.Count != 1 || d.Sum != int64(simtime.Microsecond) {
		t.Errorf("straggler_delay_ns = %+v", d)
	}
	if s.Gauges["run_active"] != 0 {
		t.Error("run_active gauge not cleared by RunEnd")
	}

	text := reg.Text()
	for _, want := range []string{"counter quanta 1", "hist quantum_ns", "node 0 sent=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	reg := NewRegistry()
	sampleRun(reg)
	rr := httptest.NewRecorder()
	reg.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d", rr.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("endpoint body is not JSON: %v", err)
	}
	if snap.Counters["quanta"] != 1 {
		t.Errorf("served quanta = %d, want 1", snap.Counters["quanta"])
	}
}

func TestServeEndToEnd(t *testing.T) {
	reg := NewRegistry()
	sampleRun(reg)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["deliveries"] != 1 {
		t.Errorf("live endpoint deliveries = %d, want 1", snap.Counters["deliveries"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 6 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("snapshot %+v", s)
	}
	var total int64
	for _, b := range s.Buckets {
		if b.Count <= 0 {
			t.Errorf("empty bucket emitted: %+v", b)
		}
		total += b.Count
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, s.Count)
	}
}

func TestProgressReports(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, simtime.Guest(20*simtime.Microsecond), -1)
	sampleRun(p)
	out := buf.String()
	if !strings.Contains(out, "finished") {
		t.Fatalf("no final report: %q", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Errorf("expected 50%% of target in %q", out)
	}
	if !strings.Contains(out, "stragglers 100.0%") {
		t.Errorf("expected straggler rate in %q", out)
	}
	if !strings.Contains(out, "quiet 0 |") {
		t.Errorf("expected the quiet-quantum count in the final line %q", out)
	}
}

// TestQuietQuantaPublished: the quiet-quantum and quiet-node-quantum counts
// arrive only in the RunSummary; the registry must publish them as counters
// and the progress reporter print them in the final line.
func TestQuietQuantaPublished(t *testing.T) {
	sum := RunSummary{Quanta: 4, QuietQuanta: 3, QuietNodeQuanta: 29}
	reg := NewRegistry()
	reg.RunEnd(sum)
	if got := reg.Snapshot().Counters["quiet_quanta"]; got != 3 {
		t.Errorf("quiet_quanta counter = %d, want 3", got)
	}
	if got := reg.Snapshot().Counters["quiet_node_quanta"]; got != 29 {
		t.Errorf("quiet_node_quanta counter = %d, want 29", got)
	}
	var buf bytes.Buffer
	NewProgress(&buf, 0, -1).RunEnd(sum)
	if out := buf.String(); !strings.Contains(out, "quiet 3 | quiet node-quanta 29 |") {
		t.Errorf("final progress line lacks the quiet counts: %q", out)
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
