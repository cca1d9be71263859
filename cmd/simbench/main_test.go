package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for the simbench binary when the
// parent under test re-executes os.Executable() with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, execChild))
	}
	dir, err := os.MkdirTemp("", "simbench-test")
	if err != nil {
		panic(err)
	}
	sharedDir = dir
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		panic(err)
	}
	os.Exit(code)
}

// sharedDir holds the files of the run the read-only tests share.
var sharedDir string

const repoBenchmarkFile = "../../" + benchmarkFile

// smokeScale shrinks every fixed op count to one or two ops.
const smokeScale = "0.02"

type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDecl(t *testing.T) benchmarkDecl {
	t.Helper()
	b, err := os.ReadFile(repoBenchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the Go metric and
// workload tables together: same names, units, directions, bounds, reasons.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	d := loadDecl(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(d.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(d.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, the harness %q/%q", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	var wantE2E, wantLayer []declMetric
	for _, def := range endToEnd {
		m := declMetric{def.name, def.unit, def.better, def.bound}
		if def.bound > 0 {
			wantE2E = append(wantE2E, m)
		} else {
			wantLayer = append(wantLayer, m)
		}
	}
	for _, def := range perLayer {
		wantLayer = append(wantLayer, declMetric{def.name, def.unit, def.better, 0})
	}
	check := func(kind string, got, want []declMetric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", d.EndToEnd, wantE2E)
	check("per_layer", d.PerLayer, wantLayer)
	seen := map[string]bool{}
	for _, m := range append(wantE2E, wantLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
}

// fullRun is one whole-protocol run at smoke scale, shared by the tests
// that only read its output.
var fullRun struct {
	once     sync.Once
	code     int
	stdout   string
	stderr   string
	out      string
	traceOut string
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// runFull runs all six workloads once. Skipped with -short, and under the
// race detector, where the sweep's Figure 6 grids alone take minutes; the
// per-workload tests below still cross the same spawn, pool and tracer code.
func runFull(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled() {
		t.Skip("runs all six workloads")
	}
	fullRun.once.Do(func() {
		fullRun.out = filepath.Join(sharedDir, "r.json")
		fullRun.traceOut = filepath.Join(sharedDir, "s.json")
		var stdout, stderr bytes.Buffer
		fullRun.code = run([]string{"-seed", "1", "-rounds", "1", "-ops-scale", smokeScale,
			"-out", fullRun.out, "-trace-out", fullRun.traceOut}, &stdout, &stderr, execChild)
		fullRun.stdout, fullRun.stderr = stdout.String(), stderr.String()
	})
	if fullRun.code != 0 {
		t.Fatalf("full run exited %d\nstderr: %s\nstdout: %s", fullRun.code, fullRun.stderr, fullRun.stdout)
	}
}

// TestEveryDeclaredMetricPrintedOnce checks the text output of a full run:
// each workload section prints exactly the metrics that apply to it, the
// drivers section exactly the D metrics, and nothing undeclared appears.
func TestEveryDeclaredMetricPrintedOnce(t *testing.T) {
	runFull(t)
	sections := map[string]map[string]int{}
	var order []string
	cur := ""
	for _, line := range strings.Split(fullRun.stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			cur = strings.Fields(line)[1]
			sections[cur] = map[string]int{}
			order = append(order, cur)
		case strings.HasPrefix(line, "  "):
			sections[cur][strings.Fields(line)[0]]++
		}
	}
	want := map[string][]string{}
	for _, w := range allWorkloads {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if def.appliesTo(w) {
				want[w.name] = append(want[w.name], def.name)
			}
		}
	}
	for _, def := range perLayer {
		if def.on == onDrivers {
			want["drivers"] = append(want["drivers"], def.name)
		}
	}
	if len(order) != len(want) {
		t.Errorf("sections %v, want the six workloads and drivers", order)
	}
	for sec, names := range want {
		got := sections[sec]
		for _, name := range names {
			if got[name] != 1 {
				t.Errorf("%s: %s printed %d times, want once", sec, name, got[name])
			}
			delete(got, name)
		}
		for name := range got {
			t.Errorf("%s: printed %s, which is not declared for it", sec, name)
		}
	}
	if strings.Contains(fullRun.stdout, "FAIL") {
		t.Errorf("output reports failures:\n%s", fullRun.stdout)
	}
}

// TestResultRoundTrips decodes the result and span files and re-encodes the
// result to the same bytes.
func TestResultRoundTrips(t *testing.T) {
	runFull(t)
	raw, err := os.ReadFile(fullRun.out)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := loadDoc(fullRun.out)
	if err != nil {
		t.Fatal(err)
	}
	again := filepath.Join(filepath.Dir(fullRun.out), "again.json")
	if err := writeJSON(again, doc); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("result document does not round-trip through resultDoc")
	}
	if doc.Host.Seed != 1 || doc.Host.NProc < 1 || doc.Host.Go == "" {
		t.Errorf("host stamp incomplete: %+v", doc.Host)
	}
	var spans [][]span
	b, err := os.ReadFile(fullRun.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(allWorkloads)+1 {
		t.Fatalf("%d span groups, want one per workload and one for the drivers", len(spans))
	}
	for i, group := range spans {
		names := map[string]bool{}
		for id, s := range group {
			names[s.Name] = true
			if s.Parent >= id || s.EndNS < s.StartNS {
				t.Errorf("group %d span %d (%s): parent %d, [%d, %d]", i, id, s.Name, s.Parent, s.StartNS, s.EndNS)
			}
		}
		if i == len(allWorkloads) {
			if !names["bench.drivers"] || len(group) < 2 {
				t.Errorf("driver spans: %v", names)
			}
			continue
		}
		want := []string{"bench.op", "experiments.fig6"}
		if allWorkloads[i].engine {
			want = []string{"bench.op", "cluster.run", "cluster.quantum", "cluster.barrier"}
		}
		for _, name := range want {
			if !names[name] {
				t.Errorf("workload %s: no %s span among %v", allWorkloads[i].name, name, names)
			}
		}
	}
}

// TestCompare: a file against itself is all "within"; a slower wall clock
// and a risen fail_ratio are "worse" and exit non-zero.
func TestCompare(t *testing.T) {
	runFull(t)
	var stdout, stderr bytes.Buffer
	if code := compareFiles(fullRun.out, fullRun.out, repoBenchmarkFile, &stdout, &stderr); code != 0 {
		t.Fatalf("self-compare exited %d: %s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	applicable := 0
	for _, w := range allWorkloads {
		for _, def := range endToEnd {
			if def.appliesTo(w) && judged(def) {
				applicable++
			}
		}
	}
	if len(lines) != applicable {
		t.Errorf("%d verdict lines, want %d", len(lines), applicable)
	}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) < 3 || f[2] != verdictWithin {
			t.Errorf("self-compare verdict: %s", line)
		}
	}

	doc, err := loadDoc(fullRun.out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc.Workloads[0].EndToEnd {
		m := &doc.Workloads[0].EndToEnd[i]
		switch m.Name {
		case mWallFloor:
			m.Value *= 1.5
		case mFailRatio:
			m.Value = 0.5
		}
	}
	worse := filepath.Join(filepath.Dir(fullRun.out), "worse.json")
	if err := writeJSON(worse, doc); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := compareFiles(fullRun.out, worse, repoBenchmarkFile, &stdout, &stderr); code != 1 {
		t.Errorf("compare against a worse file exited %d, want 1", code)
	}
	for _, name := range []string{mWallFloor, mFailRatio} {
		re := regexp.MustCompile(allWorkloads[0].name + `\s+` + name + `\s+` + verdictWorse)
		if !re.MatchString(stdout.String()) {
			t.Errorf("no worse verdict for %s:\n%s", name, stdout.String())
		}
	}
}

// exactFields extracts the fields of a result that must repeat exactly for
// one seed: fingerprints, op counts, the simulated statistics and every
// S-sourced count.
func exactFields(t *testing.T, path string) []byte {
	t.Helper()
	doc, err := loadDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	type field struct {
		Workload, Name string
		Value          float64
	}
	var out []any
	for _, w := range doc.Workloads {
		out = append(out, w.Name, w.Fingerprint, w.Ops, w.Failed, w.TracedOps, w.TracedFailed)
		for _, m := range append(append([]metricValue(nil), w.EndToEnd...), w.PerLayer...) {
			if m.Source == srcS || m.Source == srcExact {
				out = append(out, field{w.Name, m.Name, m.Value})
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExactFieldsRepeatPerSeed runs two seed-consuming workloads twice with
// one seed and once with another.
func TestExactFieldsRepeatPerSeed(t *testing.T) {
	dir := t.TempDir()
	runSeed := func(name, seed string) []byte {
		path := filepath.Join(dir, name)
		var stdout, stderr bytes.Buffer
		code := run([]string{"-seed", seed, "-rounds", "1", "-ops-scale", smokeScale,
			"-workload", wlGTFast + "," + wlDyn, "-out", path}, &stdout, &stderr, execChild)
		if code != 0 {
			t.Fatalf("seed %s exited %d: %s", seed, code, stderr.String())
		}
		return exactFields(t, path)
	}
	a, b, c := runSeed("a.json", "1"), runSeed("b.json", "1"), runSeed("c.json", "2")
	if !bytes.Equal(a, b) {
		t.Errorf("exact fields differ between two runs of seed 1:\n%s\n%s", a, b)
	}
	if bytes.Equal(a, c) {
		t.Error("exact fields identical for seeds 1 and 2: the seed is not consumed")
	}
}

// TestWrongReferenceFails plants a wrong reference fingerprint: every op
// must fail its output check, fail_ratio must be positive, the driver line
// must say so and the exit code must be non-zero.
func TestWrongReferenceFails(t *testing.T) {
	spawn := func(o childOpts) (*childReport, error) {
		o.afterSetup = func(inst instance) { inst.(*engineCase).refPrint = "planted" }
		return runChild(o)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rounds", "1", "-ops-scale", smokeScale, "-workload", wlGTFast, "-trace", "0"}, &stdout, &stderr, spawn)
	if code == 0 {
		t.Errorf("exit code 0 with a wrong reference\n%s", stdout.String())
	}
	if !regexp.MustCompile(`(?m)^  fail_ratio\s+1 `).MatchString(stdout.String()) {
		t.Errorf("fail_ratio is not 1:\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v", err)
	}
	if last.Correct || last.Failed == 0 || last.Failed != last.Attempted {
		t.Errorf("driver line %+v, want every attempted op failed", last)
	}
}

// TestDriverLines runs the benchmark driver's two forms on one workload and
// checks the last line against BENCHMARK.json: --trace 0 carries exactly
// the end_to_end metrics, --trace 1 exactly the per_layer ones.
func TestDriverLines(t *testing.T) {
	d := loadDecl(t)
	for trace, decl := range map[string][]declMetric{"0": d.EndToEnd, "1": d.PerLayer} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", wlDyn, "--seed", "3", "--seconds", "0", "--trace", trace,
			"-ops-scale", smokeScale, "-rounds", "1"}, &stdout, &stderr, execChild)
		if code != 0 {
			t.Fatalf("--trace %s exited %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("--trace %s: last line: %v", trace, err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("--trace %s: %+v", trace, last)
		}
		if len(last.Metrics) != len(decl) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(last.Metrics), len(decl))
		}
		for _, m := range decl {
			got, ok := last.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("--trace %s: metric %s missing or unit %q != %q", trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
}
