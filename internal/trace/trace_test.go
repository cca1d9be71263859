package trace

import (
	"strings"
	"testing"

	"clustersim/internal/metrics"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

func TestTrafficChartShape(t *testing.T) {
	packets := []obs.PacketRecord{
		{SendGuest: 0, Src: 0, Dst: 3},
		{SendGuest: simtime.Guest(500 * simtime.Microsecond), Src: 2, Dst: 1},
		{SendGuest: simtime.Guest(999 * simtime.Microsecond), Src: 3, Dst: 0},
	}
	s := TrafficChart(packets, 4, simtime.Guest(simtime.Millisecond), 40)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // header + 4 node rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), s)
	}
	// The first packet spans nodes 0..3 in the leftmost column.
	for row := 1; row <= 4; row++ {
		cells := lines[row][strings.Index(lines[row], "|")+1:]
		if cells[0] == ' ' {
			t.Errorf("row %d missing the t=0 packet stroke:\n%s", row, s)
		}
	}
}

func TestTrafficChartEmpty(t *testing.T) {
	s := TrafficChart(nil, 2, 0, 20)
	if s == "" {
		t.Error("empty chart should still render axes")
	}
}

func TestTrafficChartClipsOutOfRange(t *testing.T) {
	packets := []obs.PacketRecord{
		{SendGuest: simtime.Guest(2 * simtime.Millisecond), Src: 0, Dst: 1}, // past end
	}
	s := TrafficChart(packets, 2, simtime.Guest(simtime.Millisecond), 20)
	if !strings.Contains(s, "*") && !strings.Contains(s, ".") {
		t.Log("clipped packet rendered at the right edge or dropped — acceptable")
	}
}

func quantaFixture() []obs.QuantumRecord {
	// 10 quanta of 100µs each: first half fast (10ms host), second half
	// slow (100ms host).
	var qs []obs.QuantumRecord
	h := simtime.Host(0)
	for i := 0; i < 10; i++ {
		cost := simtime.Duration(10 * simtime.Millisecond)
		if i >= 5 {
			cost = 100 * simtime.Millisecond
		}
		qs = append(qs, obs.QuantumRecord{
			Index:     i,
			Start:     simtime.Guest(i) * simtime.Guest(100*simtime.Microsecond),
			Q:         100 * simtime.Microsecond,
			HostStart: h,
			HostEnd:   h.Add(cost),
		})
		h = h.Add(cost)
	}
	return qs
}

func TestSpeedupSeries(t *testing.T) {
	qs := quantaFixture()
	end := simtime.Guest(simtime.Millisecond)
	baseRate := 100e3 / 100e6 // pretend ground truth: 100µs guest per 100ms host
	series := SpeedupSeries(qs, baseRate, 10, end)
	if len(series) != 10 {
		t.Fatalf("series length %d", len(series))
	}
	// First half should show ~10x, second half ~1x.
	if series[0] < 9 || series[0] > 11 {
		t.Errorf("fast half speedup %v, want ≈10", series[0])
	}
	if series[9] < 0.9 || series[9] > 1.1 {
		t.Errorf("slow half speedup %v, want ≈1", series[9])
	}
}

func TestLogChartRendersSeries(t *testing.T) {
	s := LogChart([]float64{1, 2, 5, 10, 50, 100}, 1, 100, 6, "test")
	if !strings.Contains(s, "test") {
		t.Error("label missing")
	}
	if !strings.Contains(s, "*") {
		t.Error("no data points rendered")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 8 { // label + 6 rows + axis
		t.Errorf("expected 8 lines, got %d", len(lines))
	}
}

func TestLogChartClipping(t *testing.T) {
	s := LogChart([]float64{1000, 0.001}, 1, 100, 4, "clip")
	if !strings.Contains(s, "^") {
		t.Error("above-range value not marked clipped")
	}
	if !strings.Contains(s, "v") {
		t.Error("below-range value not marked clipped")
	}
}

func TestQuantumSeries(t *testing.T) {
	qs := quantaFixture()
	series := QuantumSeries(qs, 5, simtime.Guest(simtime.Millisecond))
	for i, v := range series {
		if v != 100 {
			t.Errorf("bin %d mean quantum %vµs, want 100", i, v)
		}
	}
}

func TestSeriesDegenerateInputs(t *testing.T) {
	if got := SpeedupSeries(nil, 1, 0, 0); len(got) != 1 {
		t.Error("degenerate SpeedupSeries should clamp to one bin")
	}
	if got := QuantumSeries(nil, -3, -1); len(got) != 1 {
		t.Error("degenerate QuantumSeries should clamp to one bin")
	}
}

func TestParetoChart(t *testing.T) {
	pts := []metrics.Point{
		{Name: "fast-sloppy", Err: 0.8, Speedup: 60},
		{Name: "accurate-slow", Err: 0.01, Speedup: 8},
		{Name: "dominated", Err: 0.9, Speedup: 7},
	}
	s := ParetoChart(pts, 40, 8)
	for _, want := range []string{"fast-sloppy", "accurate-slow", "dominated", "pareto", "accuracy error"} {
		if !strings.Contains(s, want) {
			t.Errorf("chart missing %q:\n%s", want, s)
		}
	}
	if strings.Count(s, "◆") != 2 {
		t.Errorf("expected 2 front markers:\n%s", s)
	}
}

func TestParetoChartEmpty(t *testing.T) {
	if ParetoChart(nil, 40, 8) == "" {
		t.Error("empty chart should still say something")
	}
}
