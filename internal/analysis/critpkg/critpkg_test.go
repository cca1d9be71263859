package critpkg

import "testing"

// TestDeterministicScope pins which packages simlint's determinism
// analyzers cover. internal/prof and internal/obs are deliberately in
// scope: the profiler's report is part of the repeatability claim (byte-
// identical across worker counts), so it must be as free of hidden
// nondeterministic inputs as the engine it observes.
func TestDeterministicScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"clustersim", true},
		{"clustersim/internal/cluster", true},
		{"clustersim/internal/prof", true},
		{"clustersim/internal/obs", true},
		{"clustersim/internal/simtime", true},
		{"clustersim/internal/rng", false},
		{"clustersim/internal/analysis/maporder", false},
		{"clustersim/cmd/clustersim", false},
		{"clustersim/cmd/simprof", false},
		{"github.com/other/module", false},
	}
	for _, c := range cases {
		if got := Deterministic(c.path); got != c.want {
			t.Errorf("Deterministic(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestExportScope: the maporder analyzer additionally covers command mains
// — including the new simprof renderer, whose output ordering is part of
// the report contract.
func TestExportScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"clustersim/internal/prof", true},
		{"clustersim/cmd/simprof", true},
		{"clustersim/cmd/paperfigs", true},
	}
	for _, c := range cases {
		if got := Export(c.path); got != c.want {
			t.Errorf("Export(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
