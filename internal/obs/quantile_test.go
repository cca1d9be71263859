package obs

import (
	"bytes"
	"strings"
	"testing"

	"clustersim/internal/simtime"
)

// TestQuantilePinsUniform pins the pow2-interpolation estimator on a uniform
// 1..1000 distribution. True quantiles are 500/950/990; the estimator's
// bucket interpolation lands within ~0.2% of them, and these exact values
// must not drift.
func TestQuantilePinsUniform(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.P50 != 501 {
		t.Errorf("p50 = %d, want 501", s.P50)
	}
	if s.P95 != 951 {
		t.Errorf("p95 = %d, want 951", s.P95)
	}
	if s.P99 != 991 {
		t.Errorf("p99 = %d, want 991", s.P99)
	}
}

// TestQuantileDegenerate: every sample identical must report that exact
// value at every quantile (the bucket is clamped to [min, max]).
func TestQuantileDegenerate(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(7)
	}
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := s.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) = %d, want 7", q, got)
		}
	}
}

// TestQuantileTwoPoint: a bimodal 90/10 split must put p50 in the low mode
// and p95/p99 in the high mode.
func TestQuantileTwoPoint(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	s := h.snapshot()
	if s.P50 < 8 || s.P50 > 15 {
		t.Errorf("p50 = %d, want in the low mode around 10", s.P50)
	}
	if s.P95 < 512 || s.P95 > 1000 {
		t.Errorf("p95 = %d, want in the high mode's bucket", s.P95)
	}
	if s.P99 < 512 || s.P99 > 1000 {
		t.Errorf("p99 = %d, want in the high mode's bucket", s.P99)
	}
}

// TestQuantileNonPositive: samples at or below zero live in the sentinel
// bucket; quantiles must stay within the observed range.
func TestQuantileNonPositive(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, -5, -5, 0} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.P50 < -5 || s.P50 > 0 {
		t.Errorf("p50 = %d, want within [-5, 0]", s.P50)
	}
	if got := s.Quantile(0); got != -5 {
		t.Errorf("Quantile(0) = %d, want min", got)
	}
	if got := s.Quantile(1); got != 0 {
		t.Errorf("Quantile(1) = %d, want max", got)
	}
}

// TestQuantileEmpty: an empty histogram reports zeros without panicking.
func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	s := h.snapshot()
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty histogram quantiles: %+v", s)
	}
}

// TestTextAndHTTPCarryQuantiles: both snapshot surfaces expose the
// estimates.
func TestTextAndHTTPCarryQuantiles(t *testing.T) {
	reg := NewRegistry()
	sampleRun(reg)
	text := reg.Text()
	if !strings.Contains(text, "p50=") || !strings.Contains(text, "p95=") || !strings.Contains(text, "p99=") {
		t.Errorf("Text() missing quantile fields:\n%s", text)
	}
	snap := reg.Snapshot()
	q := snap.Histograms["quantum_ns"]
	if q.P50 != int64(10*simtime.Microsecond) {
		t.Errorf("quantum_ns p50 = %d, want %d", q.P50, int64(10*simtime.Microsecond))
	}
}

// TestRegistryFastpathCounter: eligibility flows from QuantumRecord into the
// live counter and gauge.
func TestRegistryFastpathCounter(t *testing.T) {
	reg := NewRegistry()
	sampleRun(reg)
	s := reg.Snapshot()
	if s.Counters["fastpath_eligible_quanta"] != 1 {
		t.Errorf("fastpath_eligible_quanta = %d, want 1", s.Counters["fastpath_eligible_quanta"])
	}
	if s.Gauges["fastpath_eligible"] != 1 {
		t.Errorf("fastpath_eligible gauge = %d, want 1", s.Gauges["fastpath_eligible"])
	}
}

// TestRegistryFastNodesGauge: fastpath_fast_nodes is what the quantum's
// QuantumPartition says, and 0 for a quantum that has none — the registry does
// not re-derive the partitioning from the lookahead and the quantum size.
func TestRegistryFastNodesGauge(t *testing.T) {
	const nodes = 8
	for _, c := range []struct {
		name      string
		lookahead simtime.Duration
		part      int // the quantum's loose-node count; -1: no QuantumPartition
		want      int64
	}{
		{"all loose", 2 * simtime.Microsecond, nodes, nodes},
		{"partial", 2 * simtime.Microsecond, 3, 3},
		{"all tight", 2 * simtime.Microsecond, 0, 0},
		{"no partition within lookahead", 2 * simtime.Microsecond, -1, 0},
		{"lookahead ruled out", 0, -1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.RunStart(RunInfo{Nodes: nodes, Lookahead: c.lookahead})
			// A previous quantum's count must not survive into this one.
			reg.QuantumStart(0, 0, simtime.Microsecond, 0)
			reg.QuantumPartition(0, &Partitioning{FastNodes: 5})
			reg.QuantumStart(1, simtime.Guest(simtime.Microsecond), simtime.Microsecond, 100)
			if c.part >= 0 {
				reg.QuantumPartition(1, &Partitioning{FastNodes: c.part})
			}
			if got := reg.Snapshot().Gauges["fastpath_fast_nodes"]; got != c.want {
				t.Errorf("fastpath_fast_nodes = %d, want %d", got, c.want)
			}
		})
	}
}

// TestProgressFastFraction: the status line reports the engaged fraction.
func TestProgressFastFraction(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, simtime.Guest(20*simtime.Microsecond), -1)
	sampleRun(p)
	if out := buf.String(); !strings.Contains(out, "fast 100%") {
		t.Errorf("expected fast-path fraction in %q", out)
	}
}
