package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"clustersim/internal/prof"
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

// A self-diff must collapse to the equivalence line, and a one-run document
// diffed against a sweep is matched by label like two sweeps: the shared
// label diffs, the other run is only in the sweep.
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

	doc, err := prof.Read(a)
	if err != nil {
		t.Fatal(err)
	}
	doc.Runs = append(doc.Runs, prof.SweepRun{Label: "zz/other", Report: doc.Runs[0].Report})
	sweep := filepath.Join(dir, "sweep.json")
	if err := os.WriteFile(sweep, doc.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(simprof, a, sweep).CombinedOutput()
	want := "diff sweeps " + a + " -> " + sweep + "\n" +
		"diff " + a + " :: synthetic.pingpong/2/Q=2µs -> " + sweep + " :: synthetic.pingpong/2/Q=2µs\n" +
		"  reports are equivalent\n" +
		`run "zz/other" only in second` + "\n"
	if err != nil || string(out) != want {
		t.Errorf("simprof one-run vs sweep: err %v, output:\n%s\nwant:\n%s", err, out, want)
	}
}

// A one-run document renders its run in full, with or without -run naming
// it; a -run label it lacks is an error listing the labels it has (it was
// once ignored, rendering the run and exiting 0). Two one-run documents diff
// whatever their labels.
func TestOneRunDocument(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	clustersim := build(t, "./cmd/clustersim", "clustersim")
	dir := t.TempDir()
	a := writeReport(t, clustersim, dir, "a.json", "-workload", "pingpong", "-nodes", "2", "-quantum", "2us")
	b := writeReport(t, clustersim, dir, "b.json", "-workload", "pingpong", "-nodes", "2", "-quantum", "5us")
	const label = "synthetic.pingpong/2/Q=2µs"

	full, err := exec.Command(simprof, a).CombinedOutput()
	if err != nil || !strings.HasPrefix(string(full), "report "+a+" :: "+label+"\n") || !strings.Contains(string(full), "host-time attribution") {
		t.Fatalf("simprof %s: err %v, output:\n%s", a, err, full)
	}
	if hit, err := exec.Command(simprof, "-run", label, a).CombinedOutput(); err != nil || string(hit) != string(full) {
		t.Errorf("simprof -run %q: err %v, output differs from the plain render:\n%s", label, err, hit)
	}
	var stdout, stderr strings.Builder
	miss := exec.Command(simprof, "-run", "nosuch", a)
	miss.Stdout, miss.Stderr = &stdout, &stderr
	err = miss.Run()
	want := "simprof: " + a + `: no run labelled "nosuch" (have ` + label + ")\n"
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("simprof -run nosuch: err %v, stdout %q, stderr %q; want exit 1 with %q", err, stdout.String(), stderr.String(), want)
	}

	out, err := exec.Command(simprof, a, b).CombinedOutput()
	head := "diff " + a + " :: " + label + " -> " + b + " :: synthetic.pingpong/2/Q=5µs\n"
	if err != nil || !strings.HasPrefix(string(out), head) || strings.Contains(string(out), "only in") ||
		!regexp.MustCompile(`(?m)^  quanta `).Match(out) {
		t.Errorf("simprof diff of two one-run documents: err %v, output:\n%s", err, out)
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
	doc, err := prof.Read(path)
	if err != nil {
		t.Fatalf("aborted run left no report: %v\n%s", err, out)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Label != "synthetic.pingpong/1/Q=1µs" || doc.Runs[0].Report.Complete {
		t.Errorf("report of an aborted run is not one incomplete run labelled synthetic.pingpong/1/Q=1µs:\n%.400s", doc.JSON())
	}
	rendered, err := exec.Command(simprof, path).CombinedOutput()
	if err != nil || !strings.Contains(string(rendered), "incomplete run") {
		t.Errorf("simprof on the aborted run's report: err %v, output:\n%s", err, rendered)
	}
	// One node has no link, so there is no bound to report.
	if !strings.Contains(string(rendered), "  lookahead unavailable: one node, no link to probe\n") {
		t.Errorf("simprof on a one-node report does not say why lookahead is unavailable:\n%s", rendered)
	}
}

// A report in the retired first encoding carried an engagement block the
// partition table now states: simprof refuses it in one line naming the file
// and its schema, exit 1, rather than render it without engagement.
func TestRenderRetiredReport(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"schema":"clustersim-prof/1","engine":"deterministic","nodes":4,"policy":"fixed","lookahead_ns":0,` +
		`"complete":true,"quanta":3,"engagement":{"node_quanta":12,"causes":[{"cause":"no-lookahead","quanta":3}]}}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(simprof, path).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || strings.Count(string(out), "\n") != 1 ||
		!strings.Contains(string(out), path) || !strings.Contains(string(out), `"clustersim-prof/1"`) {
		t.Errorf("simprof on a retired report: err %v, output:\n%s", err, out)
	}
}

// Usage errors are one line on stderr and exit 1, never a rendering.
func TestUsageErrors(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	dir := t.TempDir()
	zzz := filepath.Join(dir, "zzz.json")
	if err := os.WriteFile(zzz, []byte(`{"schema":"zzz"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"clustersim-prof-sweep/1","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-top", "-1", zzz}, "simprof: -top must be at least 1, got -1\n"},
		{[]string{"-top", "0", zzz, zzz}, "simprof: -top must be at least 1, got 0\n"},
		// A diff once ignored -run and exited 0.
		{[]string{"-run", "x", zzz, zzz}, "simprof: -run selects the run to render; a diff takes no -run\n"},
		{[]string{missing}, "simprof: open " + missing + ": no such file or directory\n"},
		{[]string{zzz}, "simprof: " + zzz + `: unknown schema "zzz" (this build reads clustersim-prof-sweep/1)` + "\n"},
		// A document with no runs once printed an empty table and exited 0.
		{[]string{empty}, "simprof: prof: " + empty + ": no runs\n"},
		{[]string{empty, empty}, "simprof: prof: " + empty + ": no runs\n"},
	} {
		var stdout, stderr strings.Builder
		cmd := exec.Command(simprof, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || stderr.String() != c.want || stdout.Len() != 0 {
			t.Errorf("simprof %q: err %v, stdout %q, stderr %q; want exit 1 with %q", c.args, err, stdout.String(), stderr.String(), c.want)
		}
	}
}

// A sweep diffed against itself is equivalent run by run: every run has a
// label of its own, so no run is matched against another or left unmatched.
// The host ablation runs one ground-truth spec under twelve hosts.
func TestSweepSelfDiffIsEquivalent(t *testing.T) {
	simprof := build(t, "./cmd/simprof", "simprof")
	paperfigs := build(t, "./cmd/paperfigs", "paperfigs")
	path := filepath.Join(t.TempDir(), "sweep.json")
	if out, err := exec.Command(paperfigs, "-fig", "host", "-scale", "0.05", "-report", path).CombinedOutput(); err != nil {
		t.Fatalf("paperfigs: %v\n%s", err, out)
	}
	out, err := exec.Command(simprof, path, path).CombinedOutput()
	if err != nil {
		t.Fatalf("simprof self-diff: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 1+2*24 {
		t.Errorf("self-diff has %d lines, want a header and two per each of 24 runs:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "diff ") && l != "  reports are equivalent" {
			t.Errorf("self-diff line %q is neither a header nor an equivalence", l)
		}
	}
}

// The sweep table's label column is as wide as its longest label, counted in
// runes, so every later column lines up: labels hold µ and σ, and ablation
// labels run past any fixed width.
func TestRenderSweepAligns(t *testing.T) {
	labels := []string{
		"nas.ep/8/1",
		"namd/8/Q=1µs + sampling/host:sampled=2ms:0.1:2",
		"nas.ep/8/1 + jitter/host:σ=0.44:period=10µs:seed=2", // 50 runes
	}
	s := &prof.SweepReport{}
	for i, l := range labels {
		s.Runs = append(s.Runs, prof.SweepRun{Label: l, Report: &prof.Report{Quanta: int64(7 * (i + 1))}})
	}
	var b strings.Builder
	renderSweep(&b, "sweep.json", s)
	// end is the rune offset at which field ends in line.
	end := func(line, field string) int {
		return utf8.RuneCountInString(line[:strings.Index(line, field)+len(field)])
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")[2:] // the column heads, then a row per run
	for i, l := range lines[1:] {
		if got, want := end(l, fmt.Sprintf(" %d ", 7*(i+1))), end(lines[0], " quanta "); got != want ||
			utf8.RuneCountInString(l) != utf8.RuneCountInString(lines[0]) {
			t.Errorf("row %d's quanta column ends at rune %d, the header's at %d:\n%s", i, got, want, b.String())
		}
	}
}

// Every engagement number simprof prints is read off the partition table: a
// row per class, and the quanta no row counts ran without lookahead.
func TestEngagementOf(t *testing.T) {
	r := &prof.Report{Nodes: 4, Quanta: 10, Partitions: []prof.PartitionLevel{
		{Partitions: 4, Loose: 4, Quanta: 3, HostNS: 30},
		{MaxTightLatNS: 500, Partitions: 3, TightPartitions: 1, Loose: 2, Quanta: 2, HostNS: 20},
		{MaxTightLatNS: 900, Partitions: 2, TightPartitions: 2, Quanta: 4, HostNS: 40},
	}}
	e := engagementOf(r)
	want := engagement{full: 3, partial: 2, tight: 4, none: 1, fullHost: 30, partialHost: 20, looseNodeQuanta: 4*3 + 2*2}
	if e != want {
		t.Errorf("engagementOf = %+v, want %+v", e, want)
	}
	names := []string{}
	for _, c := range e.causes() {
		names = append(names, c.name)
	}
	if !slices.IsSorted(names) {
		t.Errorf("causes %v are not sorted by label", names)
	}
}
