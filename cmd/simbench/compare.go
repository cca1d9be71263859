package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile holds the bounds -compare applies, relative to the working
// directory: run the comparison from the repository root.
const benchmarkFile = "BENCHMARK.json"

// Absolute rules for the three end-to-end metrics BENCHMARK.json cannot
// bound relatively: fail_ratio may not rise at all, and the two simulated
// statistics are deterministic, so any change beyond print precision is a
// change of simulated behaviour.
const (
	accErrAbsTol     = 0.01  // percentage points
	simSpeedupRelTol = 0.001 // relative
)

// setupAbsFloorS is the absolute floor under setup_s's relative bound: the
// gt-* workloads set up in a tenth of a second, where a quarter is a few
// scheduler ticks. Differences and round-to-round gaps below it do not count.
const setupAbsFloorS = 0.05

const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func loadDoc(path string) (*resultDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d resultDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schema)
	}
	return &d, nil
}

// loadBounds reads the end_to_end bounds of a BENCHMARK.json.
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// worsening returns how much b is worse than a as a share of a (negative
// when b is better), given the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every round of b reads better than every round
// of a: the one case where a spread wider than the bound still resolves.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if better == "higher" {
		return minOf(b) > maxOf(a)
	}
	return maxOf(b) < minOf(a)
}

// judged reports whether -compare gives a verdict on the metric: the ones
// BENCHMARK.json bounds and the three with absolute rules. The unbounded
// median and mean timings are in the files to be read, not gated.
func judged(def metricDef) bool {
	return def.bound > 0 || def.name == mFailRatio || def.name == mAccErr || def.name == mSimSpeedup
}

// judge gives the verdict for one (workload, end-to-end metric) pair.
func judge(def metricDef, a, b metricValue, bounds map[string]float64) string {
	switch def.name {
	case mFailRatio:
		switch {
		case b.Value > a.Value:
			return verdictWorse
		case b.Value < a.Value:
			return verdictBetter
		}
		return verdictWithin
	case mAccErr:
		switch d := b.Value - a.Value; {
		case d > accErrAbsTol:
			return verdictWorse
		case d < -accErrAbsTol:
			return verdictBetter
		}
		return verdictWithin
	}
	bound := bounds[def.name]
	if def.name == mSimSpeedup {
		bound = simSpeedupRelTol
	}
	d := worsening(a.Value, b.Value, def.better)
	if def.name == mSetup && math.Abs(b.Value-a.Value) < setupAbsFloorS {
		d = 0
	}
	noisy := a.Unresolved || b.Unresolved
	switch {
	case d > bound:
		return verdictWorse
	case noisy && allBetter(a.Rounds, b.Rounds, def.better):
		return verdictBetter
	case noisy:
		return verdictUnresolved
	case d < -bound:
		return verdictBetter
	}
	return verdictWithin
}

func findMetric(ms []metricValue, name string) (metricValue, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// compareFiles prints one verdict per (workload, end-to-end metric) of two
// result files and returns non-zero on any worse verdict (a rise in
// fail_ratio is one).
func compareFiles(pathA, pathB, boundsPath string, stdout, stderr io.Writer) int {
	a, err := loadDoc(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	b, err := loadDoc(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	for _, def := range endToEnd {
		if _, ok := bounds[def.name]; !ok && def.bound > 0 {
			fmt.Fprintf(stderr, "simbench: %s has no bound for %s\n", boundsPath, def.name)
			return 2
		}
	}
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(stdout, "%-20s only in %s\n", wa.Name, pathA)
			continue
		}
		for _, def := range endToEnd {
			ma, okA := findMetric(wa.EndToEnd, def.name)
			mb, okB := findMetric(wb.EndToEnd, def.name)
			if !okA || !okB || !judged(def) {
				continue
			}
			v := judge(def, ma, mb, bounds)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(stdout, "%-20s %-16s %-10s %14.6g -> %-14.6g %s (%+.2f%%)\n",
				wa.Name, def.name, v, ma.Value, mb.Value, def.unit, 100*worsening(ma.Value, mb.Value, "lower"))
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d worse\n", worse)
		return 1
	}
	return 0
}
