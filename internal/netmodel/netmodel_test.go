package netmodel

import (
	"math"
	"strings"
	"testing"

	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

func TestPaperModelLatency(t *testing.T) {
	m := Paper()
	// A jumbo frame at 10 GB/s: 9042 wire bytes ≈ 0.904µs serialization
	// plus the 1µs base latency.
	f := &pkt.Frame{Size: 9000}
	lat := m.FrameLatency(f, 0, 1)
	if lat < 1800*simtime.Nanosecond || lat > 2000*simtime.Nanosecond {
		t.Errorf("jumbo frame latency %v outside [1.8µs, 2µs]", lat)
	}
	// A tiny frame is dominated by the base latency.
	tiny := m.FrameLatency(&pkt.Frame{Size: 1}, 0, 1)
	if tiny < 1000*simtime.Nanosecond || tiny > 1100*simtime.Nanosecond {
		t.Errorf("tiny frame latency %v outside [1µs, 1.1µs]", tiny)
	}
}

// minLink is the paper's T: the smallest off-diagonal entry of the lookahead
// matrix, zero when the cluster has no link.
func minLink(m *Model, nodes int) simtime.Duration {
	var min simtime.Duration
	for i, l := range m.LookaheadMatrix(nodes) {
		if i/nodes != i%nodes && (min == 0 || l < min) {
			min = l
		}
	}
	return min
}

func TestMinLatencyIsSafetyBound(t *testing.T) {
	m := Paper()
	got := minLink(m, 8)
	if got < 1000*simtime.Nanosecond {
		t.Errorf("minimum latency %v below the NIC base latency", got)
	}
	f := &pkt.Frame{Size: 1}
	if lat := m.FrameLatency(f, 3, 5); lat < got {
		t.Errorf("frame latency %v below the matrix minimum %v", lat, got)
	}
	if minLink(m, 1) != 0 {
		t.Error("single-node cluster should have no lookahead bound")
	}
}

func TestStoreAndForwardSwitch(t *testing.T) {
	m := &Model{
		NIC:    &SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 10e9},
		Switch: &StoreAndForwardSwitch{PortLatency: 2 * simtime.Microsecond, BytesPerSecond: 1e9},
	}
	f := &pkt.Frame{Size: 1000}
	perfect := Paper().FrameLatency(f, 0, 1)
	got := m.FrameLatency(f, 0, 1)
	if got <= perfect {
		t.Errorf("store-and-forward %v not above perfect switch %v", got, perfect)
	}
}

func TestMatrixSwitch(t *testing.T) {
	lat := [][]simtime.Duration{
		{0, 5 * simtime.Microsecond},
		{7 * simtime.Microsecond, 0},
	}
	m := &Model{NIC: &SimpleNIC{}, Switch: &MatrixSwitch{Lat: lat}}
	f := &pkt.Frame{Size: 100}
	if m.FrameLatency(f, 0, 1) != 5*simtime.Microsecond {
		t.Error("matrix 0→1 latency wrong")
	}
	if m.FrameLatency(f, 1, 0) != 7*simtime.Microsecond {
		t.Error("matrix 1→0 latency wrong")
	}
	if err := m.Validate(2); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	if err := m.Validate(3); err == nil {
		t.Error("undersized matrix accepted")
	}
}

func TestFatTreeSwitch(t *testing.T) {
	m := &Model{NIC: &SimpleNIC{}, Switch: &FatTreeSwitch{
		Radix:       4,
		EdgeLatency: 1 * simtime.Microsecond,
		CoreLatency: 3 * simtime.Microsecond,
	}}
	f := &pkt.Frame{Size: 100}
	sameEdge := m.FrameLatency(f, 0, 3)
	crossEdge := m.FrameLatency(f, 0, 4)
	if sameEdge >= crossEdge {
		t.Errorf("same-edge latency %v not below cross-edge %v", sameEdge, crossEdge)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Model{}).Validate(2); err == nil {
		t.Error("nil NIC accepted")
	}
	if err := (&Model{NIC: &SimpleNIC{}}).Validate(2); err == nil {
		t.Error("nil switch accepted")
	}
	if err := Paper().Validate(64); err != nil {
		t.Errorf("paper model rejected: %v", err)
	}

	// A NaN bandwidth used to run to completion with a negative total
	// straggler delay; every bad parameter must be refused by name. Zero
	// bandwidth keeps meaning infinite, and matrix entries beyond the
	// cluster are nobody's business.
	us := simtime.Microsecond
	matrix := func(bad simtime.Duration) *MatrixSwitch {
		return &MatrixSwitch{Lat: [][]simtime.Duration{{0, us, -us}, {bad, 0, -us}, {-us, -us, -us}}}
	}
	cases := []struct {
		name string
		m    Model
		want string // "" = valid
	}{
		{"zero bandwidths", Model{NIC: &SimpleNIC{}, Switch: &StoreAndForwardSwitch{}}, ""},
		{"NIC infinite rate", Model{NIC: &SimpleNIC{BytesPerSecond: math.Inf(1)}, Switch: PerfectSwitch{}}, "NIC bandwidth"},
		{"NIC -Inf rate", Model{NIC: &SimpleNIC{BytesPerSecond: math.Inf(-1)}, Switch: PerfectSwitch{}}, "NIC bandwidth"},
		{"NIC negative base latency", Model{NIC: &SimpleNIC{BaseLatency: -us}, Switch: PerfectSwitch{}}, "NIC base latency"},
		{"NIC negative receive overhead", Model{NIC: &SimpleNIC{RecvOverhead: -us}, Switch: PerfectSwitch{}}, "NIC receive overhead"},
		{"switch NaN rate", Model{NIC: &SimpleNIC{}, Switch: &StoreAndForwardSwitch{BytesPerSecond: math.NaN()}}, "switch bandwidth"},
		{"switch negative port latency", Model{NIC: &SimpleNIC{}, Switch: &StoreAndForwardSwitch{PortLatency: -us}}, "switch port latency"},
		{"fat-tree negative edge", Model{NIC: &SimpleNIC{}, Switch: &FatTreeSwitch{Radix: 2, EdgeLatency: -us}}, "fat-tree edge latency"},
		{"fat-tree negative core", Model{NIC: &SimpleNIC{}, Switch: &FatTreeSwitch{Radix: 2, CoreLatency: -us}}, "fat-tree core latency"},
		{"matrix negative entry", Model{NIC: &SimpleNIC{}, Switch: matrix(-us)}, "latency matrix entry [1][0]"},
		{"matrix negative beyond the cluster", Model{NIC: &SimpleNIC{}, Switch: matrix(us)}, ""},
	}
	for _, c := range cases {
		err := c.m.Validate(2)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v does not name %q", c.name, err, c.want)
		}
	}
}

func TestInfiniteBandwidthSerialization(t *testing.T) {
	n := &SimpleNIC{BaseLatency: simtime.Microsecond}
	if n.Serialization(&pkt.Frame{Size: 1 << 20}) != 0 {
		t.Error("zero-bandwidth NIC should serialize instantly")
	}
}

func TestMinLatencyFewNodes(t *testing.T) {
	// With fewer than two nodes there is no link to probe: the matrix holds
	// no positive entry a bound could be read from.
	for _, m := range []*Model{Paper(), {
		NIC:    &SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 1e9},
		Switch: &StoreAndForwardSwitch{BytesPerSecond: 1e9},
	}} {
		for _, nodes := range []int{0, 1} {
			for _, l := range m.LookaheadMatrix(nodes) {
				if l != 0 {
					t.Errorf("LookaheadMatrix(%d) holds %v, want no link", nodes, l)
				}
			}
		}
	}
}

func TestMinProbeDoesNotAllocate(t *testing.T) {
	// MinProbe hands out a shared read-only frame, so probing —
	// LookaheadMatrix's per-pair loop, the profiler's LinkLat closure —
	// costs zero heap frames: the matrix is the probe's one allocation.
	m := Paper()
	if n := testing.AllocsPerRun(100, func() {
		_ = m.FrameLatency(MinProbe(), 0, 1)
	}); n != 0 {
		t.Errorf("MinProbe+FrameLatency allocates %v times per probe, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = m.LookaheadMatrix(8)
	}); n != 1 {
		t.Errorf("LookaheadMatrix allocates %v times per call, want 1", n)
	}
}

func TestLookaheadMatrix(t *testing.T) {
	ft := &Model{NIC: &SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 10e9}, Switch: &FatTreeSwitch{
		Radix:       4,
		EdgeLatency: 500 * simtime.Nanosecond,
		CoreLatency: 2 * simtime.Microsecond,
	}}
	const nodes = 8
	lat := ft.LookaheadMatrix(nodes)
	if len(lat) != nodes*nodes {
		t.Fatalf("matrix length %d, want %d", len(lat), nodes*nodes)
	}
	probe := MinProbe()
	min := simtime.Duration(-1)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			got := lat[s*nodes+d]
			if s == d {
				if got != 0 {
					t.Errorf("diagonal [%d][%d] = %v, want 0", s, d, got)
				}
				continue
			}
			if want := ft.FrameLatency(probe, s, d); got != want {
				t.Errorf("[%d][%d] = %v, want probe latency %v", s, d, got, want)
			}
			if min < 0 || got < min {
				min = got
			}
		}
	}
	// The fat-tree has exactly two latency classes: intra-rack and
	// inter-rack.
	intra, inter := lat[0*nodes+1], lat[0*nodes+4]
	if min != intra {
		t.Errorf("matrix minimum %v, want the intra-rack latency %v", min, intra)
	}
	if intra >= inter {
		t.Errorf("intra-rack %v not below inter-rack %v", intra, inter)
	}
	if LookaheadMatrixOK := (&Model{NIC: &SimpleNIC{}, Switch: PerfectSwitch{}}).LookaheadMatrix(0); LookaheadMatrixOK != nil {
		t.Errorf("LookaheadMatrix(0) = %v, want nil", LookaheadMatrixOK)
	}
}

func TestMinLatencyUsesMinProbe(t *testing.T) {
	// Under a serialization model the bound must come from the cheapest
	// possible frame (Size 0), so it lower-bounds even a 1-byte frame.
	m := &Model{
		NIC:    &SimpleNIC{BaseLatency: simtime.Microsecond, BytesPerSecond: 1e9},
		Switch: &StoreAndForwardSwitch{BytesPerSecond: 1e9},
	}
	want := m.FrameLatency(MinProbe(), 0, 1)
	got := minLink(m, 4)
	if got != want {
		t.Errorf("matrix minimum = %v, want the size-0 probe latency %v", got, want)
	}
	if oneByte := m.FrameLatency(&pkt.Frame{Size: 1}, 0, 1); oneByte <= got {
		t.Errorf("1-byte frame latency %v not above the size-0 bound %v", oneByte, got)
	}
}
