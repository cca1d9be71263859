package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"clustersim/internal/simtime"
)

// Chrome trace-event constants: all tracks share one process; the controller
// (quanta, barriers, packet instants) is thread 0 and node i is thread i+1.
const (
	tracePID       = 1
	traceCtrl      = 0
	traceNodeBase  = 1
	tsPerMicro     = 1000.0 // trace timestamps are microseconds; ours are ns
	traceCatEngine = "engine"
)

// traceEvent is one Chrome trace-event object. The exported JSON is the
// "JSON array format" understood by chrome://tracing and Perfetto:
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTracer is an Observer that streams a run as Chrome trace-event JSON
// — loadable in chrome://tracing or https://ui.perfetto.dev — rendering
// per-node busy/idle segments ("X" complete events), per-quantum "B"/"E"
// spans with nested barrier segments on the controller track, and packet
// deliveries as "i" instant events. Events are written as they happen, so a
// long run's trace can be inspected before (or without) the run finishing.
//
// The tracer is safe for concurrent use. Call Close (or let the engine call
// RunEnd) to terminate the JSON array; Close after RunEnd is a no-op, so
// `defer tracer.Close()` is always correct.
type ChromeTracer struct {
	Base   // the hooks the trace has no event for
	mu     sync.Mutex
	w      *bufio.Writer
	n      int          // events written
	qHost  simtime.Host // host start of the open quantum: packet instants' time
	loose  int          // loose nodes of the open quantum's partitioning
	closed bool
	err    error
}

// NewChromeTracer returns a tracer streaming to w. The caller remains
// responsible for closing w (if it is a file) after Close.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	return &ChromeTracer{w: bufio.NewWriter(w)}
}

// emit appends one event to the JSON array. Callers hold t.mu.
func (t *ChromeTracer) emit(ev traceEvent) {
	if t.closed || t.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	sep := ",\n"
	if t.n == 0 {
		sep = "[\n"
	}
	if _, err := t.w.WriteString(sep); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Close terminates the JSON array and flushes buffered events. It returns
// the first write or encoding error encountered while streaming.
func (t *ChromeTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finalize()
}

func (t *ChromeTracer) finalize() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if t.n == 0 {
		if _, err := t.w.WriteString("[]\n"); err != nil {
			t.err = err
			return t.err
		}
	} else if _, err := t.w.WriteString("\n]\n"); err != nil {
		t.err = err
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

func hostTS(h simtime.Host) float64       { return float64(h) / tsPerMicro }
func durTS(d simtime.Duration) float64    { return float64(d) / tsPerMicro }
func guestMicros(g simtime.Guest) float64 { return float64(g) / tsPerMicro }
func nodeTID(node int) int                { return traceNodeBase + node }

// RunStart emits process/thread naming metadata so tracks are labelled.
func (t *ChromeTracer) RunStart(info RunInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	mode := "deterministic"
	if info.Parallel {
		mode = "parallel"
	}
	t.emit(traceEvent{Name: "process_name", Ph: "M", PID: tracePID,
		Args: map[string]any{"name": fmt.Sprintf("clustersim (%s, policy %s)", mode, info.Policy)}})
	t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: traceCtrl,
		Args: map[string]any{"name": "controller"}})
	for i := 0; i < info.Nodes; i++ {
		t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: tracePID, TID: nodeTID(i),
			Args: map[string]any{"name": fmt.Sprintf("node %d", i)}})
	}
}

// RunEnd terminates the trace.
func (t *ChromeTracer) RunEnd(sum RunSummary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emit(traceEvent{Name: "run end", Cat: traceCatEngine, Ph: "i", PID: tracePID,
		TID: traceCtrl, TS: hostTS(sum.HostEnd), Scope: "g",
		Args: map[string]any{"guest_time_us": guestMicros(sum.GuestTime)}})
	t.finalize()
}

// QuantumStart opens the quantum span on the controller track.
func (t *ChromeTracer) QuantumStart(index int, start simtime.Guest, q simtime.Duration, hostStart simtime.Host) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.qHost = hostStart
	t.loose = 0
	t.emit(traceEvent{Name: "quantum", Cat: traceCatEngine, Ph: "B", PID: tracePID,
		TID: traceCtrl, TS: hostTS(hostStart),
		Args: map[string]any{"index": index, "Q_us": durTS(q), "guest_start_us": guestMicros(start)}})
}

// QuantumPartition notes the quantum's loose-node count for its counter.
func (t *ChromeTracer) QuantumPartition(_ int, p *Partitioning) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loose = p.Loose
}

// QuantumEnd draws the barrier segment and closes the quantum span.
func (t *ChromeTracer) QuantumEnd(rec QuantumRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.BarrierStart >= rec.HostStart && rec.HostEnd >= rec.BarrierStart {
		t.emit(traceEvent{Name: "barrier", Cat: traceCatEngine, Ph: "X", PID: tracePID,
			TID: traceCtrl, TS: hostTS(rec.BarrierStart), Dur: durTS(rec.HostEnd.Sub(rec.BarrierStart)),
			Args: map[string]any{"packets": rec.Packets, "stragglers": rec.Stragglers}})
	}
	t.emit(traceEvent{Name: "quantum", Cat: traceCatEngine, Ph: "E", PID: tracePID,
		TID: traceCtrl, TS: hostTS(rec.HostEnd)})
	// Counter tracks: Perfetto renders each "C" name as a chart over time,
	// turning the per-quantum series (quantum size, traffic, loose nodes)
	// into live diagnostics alongside the span tracks.
	ts := hostTS(rec.HostEnd)
	t.emit(traceEvent{Name: "quantum_size", Cat: traceCatEngine, Ph: "C", PID: tracePID,
		TID: traceCtrl, TS: ts, Args: map[string]any{"Q_us": durTS(rec.Q)}})
	t.emit(traceEvent{Name: "traffic", Cat: traceCatEngine, Ph: "C", PID: tracePID,
		TID: traceCtrl, TS: ts, Args: map[string]any{"packets": rec.Packets, "stragglers": rec.Stragglers}})
	t.emit(traceEvent{Name: "loose_nodes", Cat: traceCatEngine, Ph: "C", PID: tracePID,
		TID: traceCtrl, TS: ts, Args: map[string]any{"loose": t.loose}})
}

// Packet marks a delivery on the controller track. The instant sits on the
// host-time axis like every other event, at the start of the quantum that
// routed the frame, so it lies inside that quantum's span; the guest-time
// ideal and actual arrivals are in its args. Straggler deliveries are named
// separately so Perfetto can filter them.
func (t *ChromeTracer) Packet(rec PacketRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := "packet"
	switch {
	case rec.Dropped:
		name = "drop"
	case rec.Straggler:
		name = "straggler"
	}
	args := map[string]any{
		"src": rec.Src, "dst": rec.Dst, "size": rec.Size,
		"ideal_us": guestMicros(rec.Ideal), "arrival_us": guestMicros(rec.Arrival),
	}
	if rec.Straggler {
		args["late_us"] = durTS(rec.Arrival.Sub(rec.Ideal))
		args["snapped"] = rec.Snapped
	}
	if rec.Duplicate {
		args["duplicate"] = true
	}
	t.emit(traceEvent{Name: name, Cat: "net", Ph: "i", PID: tracePID,
		TID: traceCtrl, TS: hostTS(t.qHost), Scope: "t", Args: args})
}

// NodePhase draws a busy/idle segment on the node's track; PhaseDone becomes
// an instant marker.
func (t *ChromeTracer) NodePhase(node int, phase Phase, gFrom, gTo simtime.Guest, hFrom, hTo simtime.Host) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if phase == PhaseDone {
		t.emit(traceEvent{Name: "done", Cat: traceCatEngine, Ph: "i", PID: tracePID,
			TID: nodeTID(node), TS: hostTS(hFrom), Scope: "t",
			Args: map[string]any{"guest_us": guestMicros(gFrom)}})
		return
	}
	t.emit(traceEvent{Name: phase.String(), Cat: traceCatEngine, Ph: "X", PID: tracePID,
		TID: nodeTID(node), TS: hostTS(hFrom), Dur: durTS(hTo.Sub(hFrom)),
		Args: map[string]any{"g_from_us": guestMicros(gFrom), "g_to_us": guestMicros(gTo)}})
}
