package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"

	"clustersim/internal/simtime"
)

// Histogram accumulates int64 samples into power-of-two buckets — enough
// resolution to see the shape of quantum-size, wait or slack distributions
// without pre-declaring ranges. The ladder is mirrored across zero for signed
// samples such as slack: v > 0 lands in [2^(i-1), 2^i) and v < 0 in
// (-2^i, -2^(i-1)] for i = bits.Len64(|v|), and 0 in [0, 1).
type Histogram struct {
	count int64
	sum   int64
	min   int64
	max   int64
	zero  int64
	pos   [65]int64
	neg   [65]int64
}

// Observe folds one sample into the histogram.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	switch {
	case v > 0:
		h.pos[bits.Len64(uint64(v))]++
	case v < 0:
		h.neg[bits.Len64(uint64(-v))]++
	default:
		h.zero++
	}
}

// Summary returns the sample count, sum, minimum and maximum.
func (h *Histogram) Summary() (count, sum, min, max int64) {
	return h.count, h.sum, h.min, h.max
}

// Buckets calls fn for every occupied bucket, ascending, with the half-open
// interval [lo, hi) it covers: negative bucket i is [1-2^i, 1-2^(i-1)).
func (h *Histogram) Buckets(fn func(lo, hi, count int64)) {
	for i := 64; i >= 1; i-- {
		if c := h.neg[i]; c != 0 {
			fn(1-(int64(1)<<uint(i)), 1-(int64(1)<<uint(i-1)), c)
		}
	}
	if h.zero != 0 {
		fn(0, 1, h.zero)
	}
	for i := 1; i <= 64; i++ {
		if c := h.pos[i]; c != 0 {
			fn(int64(1)<<uint(i-1), int64(1)<<uint(i), c)
		}
	}
}

// HistBucket is one occupied histogram bucket covering [Lo, Hi).
type HistBucket struct {
	Lo, Hi int64
	Count  int64
}

// HistSnapshot is a copyable view of a Histogram. P50/P95/P99 are quantile
// estimates interpolated within the power-of-two buckets (see Quantile).
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Mean    float64      `json:"mean"`
	P50     int64        `json:"p50"`
	P95     int64        `json:"p95"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	// The snapshot folds every sample at or below zero into one [0,0) bucket;
	// their buckets lead the ascending walk.
	folded := h.zero
	for _, c := range h.neg {
		folded += c
	}
	if folded != 0 {
		s.Buckets = append(s.Buckets, HistBucket{Count: folded})
	}
	h.Buckets(func(lo, hi, c int64) {
		if folded > 0 {
			folded -= c
			return
		}
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
	})
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed samples by
// locating the bucket holding the ceil(q*count)-th smallest sample and
// interpolating linearly by rank inside it. Buckets are clamped to the
// observed [Min, Max] range first, so degenerate distributions (all samples
// equal) report the exact value and the extreme quantiles never escape the
// observed range. q <= 0 returns Min, q >= 1 returns Max, and an empty
// histogram returns 0.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for _, b := range s.Buckets {
		if cum+b.Count < target {
			cum += b.Count
			continue
		}
		lo, hi := b.Lo, b.Hi
		if lo == 0 && hi == 0 {
			// The v <= 0 bucket carries no range of its own; it spans from
			// the observed minimum up to (but excluding) 1.
			lo, hi = s.Min, 1
		}
		if lo < s.Min {
			lo = s.Min
		}
		if hi > s.Max+1 {
			hi = s.Max + 1
		}
		if hi <= lo {
			return lo
		}
		frac := float64(target-cum) / float64(b.Count)
		v := int64(float64(lo) + frac*float64(hi-lo))
		if v >= hi {
			v = hi - 1
		}
		if v < lo {
			v = lo
		}
		return v
	}
	return s.Max
}

// MarshalJSON renders buckets as an ordered "[lo,hi)": count map.
func (b HistBucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(map[string]int64{fmt.Sprintf("[%d,%d)", b.Lo, b.Hi): b.Count})
}

// Registry is an Observer accumulating live counters, gauges and histograms:
// quantum-size and straggler-delay distributions, per-node send/receive
// counts, packets per quantum, and the host busy/idle split. It serves an
// expvar-style JSON snapshot over HTTP (ServeHTTP / Serve) and a plain-text
// snapshot (Text), both readable while a run is in flight.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
	nodeSent []int64
	nodeRecv []int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Add increments a named counter; usable by sinks beyond the built-in hooks.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// SetGauge sets a named gauge.
func (r *Registry) SetGauge(name string, v int64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// hist returns the named histogram, creating it if needed. Callers hold r.mu.
func (r *Registry) hist(name string) *Histogram {
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RunStart sizes the per-node tables and records run parameters.
func (r *Registry) RunStart(info RunInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters["runs_started"]++
	r.gauges["nodes"] = int64(info.Nodes)
	r.gauges["run_active"] = 1
	r.gauges["fastpath_lookahead_ns"] = int64(info.Lookahead)
	if len(r.nodeSent) < info.Nodes {
		r.nodeSent = append(r.nodeSent, make([]int64, info.Nodes-len(r.nodeSent))...)
		r.nodeRecv = append(r.nodeRecv, make([]int64, info.Nodes-len(r.nodeRecv))...)
	}
}

// RunEnd records the final guest time and the run's quiet-quantum and
// quiet-node-quantum counts (known only at the end: they are engine path mix,
// not part of any record).
func (r *Registry) RunEnd(sum RunSummary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters["runs_finished"]++
	r.counters["quiet_quanta"] += int64(sum.QuietQuanta)
	r.counters["quiet_node_quanta"] += int64(sum.QuietNodeQuanta)
	r.gauges["run_active"] = 0
	r.gauges["guest_ns"] = int64(sum.GuestTime)
	r.gauges["host_ns"] = int64(sum.HostEnd)
}

// QuantumStart publishes the live quantum size and guest progress, and no
// loose nodes until a QuantumPartition says how many there are: a quantum
// without one is partitioned by a lookahead that is ruled out.
func (r *Registry) QuantumStart(index int, start simtime.Guest, q simtime.Duration, hostStart simtime.Host) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges["current_quantum_ns"] = int64(q)
	r.gauges["guest_ns"] = int64(start)
	r.gauges["host_ns"] = int64(hostStart)
	r.gauges["fastpath_fast_nodes"] = 0
}

// QuantumPartition publishes the partitioning's loose-node count, the one
// writer of fastpath_fast_nodes beside QuantumStart's reset.
func (r *Registry) QuantumPartition(index int, p *Partitioning) {
	r.SetGauge("fastpath_fast_nodes", int64(p.FastNodes))
}

// QuantumEnd folds the quantum into the distribution metrics.
func (r *Registry) QuantumEnd(rec QuantumRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters["quanta"]++
	r.counters["packets"] += int64(rec.Packets)
	if rec.Packets == 0 {
		r.counters["silent_quanta"]++
	}
	if rec.FastEligible {
		r.counters["fastpath_eligible_quanta"]++
		r.gauges["fastpath_eligible"] = 1
	} else {
		r.gauges["fastpath_eligible"] = 0
	}
	r.hist("quantum_ns").Observe(int64(rec.Q))
	r.hist("packets_per_quantum").Observe(int64(rec.Packets))
	r.hist("barrier_ns").Observe(int64(rec.HostEnd.Sub(rec.BarrierStart)))
	r.gauges["guest_ns"] = int64(rec.Start.Add(rec.Q))
	r.gauges["host_ns"] = int64(rec.HostEnd)
}

// Packet folds one delivery into per-node traffic counts, the straggler-delay
// histogram and the least lookahead slack seen: a frame's pre-fault latency
// minus the quantum it was sent in.
func (r *Registry) Packet(rec PacketRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !rec.Duplicate {
		slack := int64(rec.Latency) - r.gauges["current_quantum_ns"]
		if min, seen := r.gauges["prof_min_slack_ns"]; !seen || slack < min {
			r.gauges["prof_min_slack_ns"] = slack
		}
	}
	if rec.Dropped {
		r.counters["drops"]++
		return
	}
	r.counters["deliveries"]++
	if rec.Duplicate {
		r.counters["dups"]++
	}
	if rec.Src >= 0 && rec.Src < len(r.nodeSent) {
		r.nodeSent[rec.Src]++
	}
	if rec.Dst >= 0 && rec.Dst < len(r.nodeRecv) {
		r.nodeRecv[rec.Dst]++
	}
	if rec.Straggler {
		r.counters["stragglers"]++
		r.hist("straggler_delay_ns").Observe(int64(rec.Arrival.Sub(rec.Ideal)))
		if rec.Snapped {
			r.counters["quantum_snaps"]++
		}
	}
}

// NodePhase accumulates the host busy/idle split (the paper's Figure 5
// breakdown, live).
func (r *Registry) NodePhase(node int, phase Phase, gFrom, gTo simtime.Guest, hFrom, hTo simtime.Host) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch phase {
	case PhaseBusy:
		r.counters["host_busy_ns"] += int64(hTo.Sub(hFrom))
	case PhaseIdle:
		r.counters["host_idle_ns"] += int64(hTo.Sub(hFrom))
	case PhaseDone:
		r.counters["nodes_done"]++
	}
}

// Snapshot is a copyable view of the whole registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	NodeSent   []int64                 `json:"node_sent,omitempty"`
	NodeRecv   []int64                 `json:"node_recv,omitempty"`
}

// Snapshot returns a consistent copy of all metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		NodeSent:   append([]int64(nil), r.nodeSent...),
		NodeRecv:   append([]int64(nil), r.nodeRecv...),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

// Text renders a sorted human-readable snapshot, one metric per line.
func (r *Registry) Text() string {
	s := r.Snapshot()
	var b strings.Builder
	writeSorted := func(kind string, m map[string]int64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s %d\n", kind, k, m[k])
		}
	}
	writeSorted("counter", s.Counters)
	writeSorted("gauge", s.Gauges)
	hkeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "hist %s count=%d min=%d mean=%.1f p50=%d p95=%d p99=%d max=%d\n",
			k, h.Count, h.Min, h.Mean, h.P50, h.P95, h.P99, h.Max)
	}
	for i := range s.NodeSent {
		fmt.Fprintf(&b, "node %d sent=%d recv=%d\n", i, s.NodeSent[i], s.NodeRecv[i])
	}
	return b.String()
}

// ServeHTTP serves the expvar-style JSON snapshot (any path, GET).
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}

// MetricsServer is a running HTTP endpoint serving a Registry.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0" listeners).
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// Serve exposes reg on addr (e.g. "localhost:6060" or ":0") in a background
// goroutine and returns the running server.
func Serve(addr string, reg *Registry) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: reg}
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}
