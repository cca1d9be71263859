package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the directory holding
// go.mod, so the test is independent of the package's location.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

func build(t *testing.T, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// writeReport runs clustersim with -report and returns the report path.
func writeReport(t *testing.T, clustersim, dir, name string, args ...string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	cmd := exec.Command(clustersim, append(args, "-report", path)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clustersim %v: %v\n%s", args, err, out)
	}
	return path
}

// Diffing reports whose link and partition-level sets are disjoint — a
// mixedwan geometry against a larger fat-tree — must neither panic nor
// depend on map iteration order: added/removed links appear as sorted
// "only in first/second" rows and the output is byte-stable across runs.
func TestDiffDisjointTopologies(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	clustersim := build(t, "./cmd/clustersim", "clustersim")
	dir := t.TempDir()
	a := writeReport(t, clustersim, dir, "a.json",
		"-workload", "uniform", "-nodes", "6", "-quantum", "5us", "-topo", "mixedwan:4:500ns:50us")
	b := writeReport(t, clustersim, dir, "b.json",
		"-workload", "uniform", "-nodes", "8", "-quantum", "10us", "-topo", "rack:4:500ns:2us")

	run := func() string {
		out, err := exec.Command(simprof, "-top", "1000", a, b).CombinedOutput()
		if err != nil {
			t.Fatalf("simprof diff: %v\n%s", err, out)
		}
		return string(out)
	}
	first := run()
	if second := run(); first != second {
		t.Error("diff output differs across identical invocations (map-order leak)")
	}

	// Nodes 6 and 7 exist only in the 8-node report: every such link must be
	// reported as only-in-second, and the full link listing must be sorted.
	if !strings.Contains(first, "only in second") {
		t.Errorf("diff of disjoint link sets lacks only-in-second rows:\n%s", first)
	}
	if !strings.Contains(first, "only in first") {
		t.Errorf("diff of disjoint partition levels lacks only-in-first rows:\n%s", first)
	}
	linkRe := regexp.MustCompile(`link (\d+)->(\d+)`)
	var links []string
	for _, m := range linkRe.FindAllStringSubmatch(first, -1) {
		links = append(links, m[1]+"->"+m[2])
	}
	if len(links) < 40 {
		t.Fatalf("expected dozens of link rows across 6- and 8-node reports, got %d", len(links))
	}
	for i := 1; i < len(links); i++ {
		var as, ad, bs, bd int
		if _, err := fmtSscanf(links[i-1], &as, &ad); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscanf(links[i], &bs, &bd); err != nil {
			t.Fatal(err)
		}
		if bs < as || (bs == as && bd <= ad) {
			t.Fatalf("link rows not in sorted order: %s before %s", links[i-1], links[i])
		}
	}
}

// fmtSscanf parses a "src->dst" link key.
func fmtSscanf(s string, src, dst *int) (int, error) {
	parts := strings.SplitN(s, "->", 2)
	var err error
	*src, err = atoi(parts[0])
	if err != nil {
		return 0, err
	}
	*dst, err = atoi(parts[1])
	return 2, err
}

func atoi(s string) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, os.ErrInvalid
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

// The elision line must state how many rows it dropped and never appear
// when the change count fits within -top.
func TestDiffLinkElision(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	clustersim := build(t, "./cmd/clustersim", "clustersim")
	dir := t.TempDir()
	a := writeReport(t, clustersim, dir, "a.json",
		"-workload", "uniform", "-nodes", "4", "-quantum", "5us", "-topo", "rack:2:500ns:2us")
	b := writeReport(t, clustersim, dir, "b.json",
		"-workload", "uniform", "-nodes", "4", "-quantum", "5us", "-topo", "rack:2:500ns:4us")

	out, err := exec.Command(simprof, "-top", "2", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("simprof diff: %v\n%s", err, out)
	}
	elide := regexp.MustCompile(`… (\d+) further link changes elided \(-top 2\)`)
	if !elide.Match(out) {
		t.Errorf("-top 2 diff lacks a counted elision line:\n%s", out)
	}
	if n := len(regexp.MustCompile(`(?m)^  link `).FindAll(out, -1)); n != 2 {
		t.Errorf("-top 2 diff shows %d link rows, want 2:\n%s", n, out)
	}

	out, err = exec.Command(simprof, "-top", "1000", a, b).CombinedOutput()
	if err != nil {
		t.Fatalf("simprof diff: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "elided") {
		t.Errorf("nothing was elided but the elision line appears:\n%s", out)
	}
}

// A self-diff must collapse to the equivalence line, and diffing a single
// report against a sweep must fail with a one-line error.
func TestDiffEquivalentAndMismatchedSchemas(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	clustersim := build(t, "./cmd/clustersim", "clustersim")
	dir := t.TempDir()
	a := writeReport(t, clustersim, dir, "a.json",
		"-workload", "pingpong", "-nodes", "2", "-quantum", "2us")
	out, err := exec.Command(simprof, a, a).CombinedOutput()
	if err != nil {
		t.Fatalf("self-diff: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "reports are equivalent") {
		t.Errorf("self-diff output lacks the equivalence line:\n%s", out)
	}
}

// A sweep file is outside input: a run that lacks its report must be a
// one-line error naming the run, with and without -run, never a panic.
func TestSweepRunWithoutReport(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-run", "x", path}} {
		out, err := exec.Command(simprof, args...).CombinedOutput()
		if err == nil || strings.Contains(string(out), "panic") || !strings.Contains(string(out), `run "x" has no report`) {
			t.Errorf("simprof %v: err %v, output:\n%s", args, err, out)
		}
	}
}

// A run that starts and then aborts still has a profile, of a prefix:
// clustersim -report writes it (exit code 1 all the same) and simprof renders
// it, saying that it is incomplete.
func TestAbortedRunReport(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	clustersim := build(t, "./cmd/clustersim", "clustersim")
	path := filepath.Join(t.TempDir(), "aborted.json")
	// Ping-pong on one node has no partner: a workload error within milliseconds.
	out, err := exec.Command(clustersim, "-workload", "pingpong", "-nodes", "1", "-report", path).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("aborted run: err %v, want exit 1:\n%s", err, out)
	}
	if !strings.Contains(string(out), "incomplete report written to "+path) {
		t.Errorf("stderr does not say the report is incomplete:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("aborted run left no report: %v\n%s", err, out)
	}
	if !strings.Contains(string(b), `"complete": false`) {
		t.Errorf("report of an aborted run does not say complete: false:\n%.400s", b)
	}
	rendered, err := exec.Command(simprof, path).CombinedOutput()
	if err != nil || !strings.Contains(string(rendered), "incomplete run") {
		t.Errorf("simprof on the aborted run's report: err %v, output:\n%s", err, rendered)
	}
}
