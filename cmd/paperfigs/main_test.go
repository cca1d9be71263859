package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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

func buildPaperfigs(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "paperfigs")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/paperfigs")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/paperfigs: %v\n%s", err, out)
	}
	return bin
}

// A typoed -fig used to fall through every dispatch arm and exit 0 with no
// output at all; these flags must instead die with a one-line "paperfigs: ..."
// error before any simulation (or cache/report bookkeeping) starts.
func TestCLIFlagErrors(t *testing.T) {
	bin := buildPaperfigs(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown fig", []string{"-fig", "10"}, `unknown -fig "10"`},
		{"unknown fig word", []string{"-fig", "everything"}, "want 6, 7, 8, 9"},
		{"zero scale", []string{"-fig", "6", "-scale", "0"}, "-scale: must be positive and finite"},
		{"negative scale", []string{"-fig", "7", "-scale", "-0.5"}, "-scale: must be positive and finite"},
		{"NaN scale", []string{"-fig", "7", "-scale", "NaN"}, "-scale: must be positive and finite"},
		{"zero nodes", []string{"-fig", "9a", "-nodes", "0"}, "-nodes must be >= 1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("paperfigs %v succeeded, want error:\n%s", c.args, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("want exit code 1, got %v", err)
			}
			text := strings.TrimSpace(string(out))
			if !strings.Contains(text, c.want) {
				t.Errorf("output %q does not mention %q", text, c.want)
			}
			if !strings.HasPrefix(text, "paperfigs:") {
				t.Errorf("error line %q lacks the paperfigs: prefix", text)
			}
			if strings.Count(text, "\n") > 0 {
				t.Errorf("error output is multi-line, want one usable line:\n%s", text)
			}
		})
	}
}

// -fig 9a, 9b and 9c used to run all three 64-node case studies and throw two
// away. Each letter is its own study: one ground truth, one table, one CSV;
// -fig 9 is the three of them.
func TestFig9RunsOnlyItsCase(t *testing.T) {
	bin := buildPaperfigs(t)
	for _, c := range []struct {
		fig, baselines string
		files          []string
	}{
		{"9b", "1 baselines simulated", []string{"fig9_nas_is.csv"}},
		{"9", "3 baselines simulated", []string{"fig9_namd.csv", "fig9_nas_ep.csv", "fig9_nas_is.csv"}},
	} {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-fig", c.fig, "-scale", "0.02", "-nodes", "4", "-width", "40", "-csv", dir)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-fig %s: %v\n%s", c.fig, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.baselines) {
			t.Errorf("-fig %s: stderr %q, want %q", c.fig, stderr.String(), c.baselines)
		}
		if got := strings.Count(stdout.String(), "Figure 9 / Section 6 — "); got != len(c.files) {
			t.Errorf("-fig %s printed %d case studies, want %d", c.fig, got, len(c.files))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		if strings.Join(files, " ") != strings.Join(c.files, " ") {
			t.Errorf("-fig %s wrote %v, want %v", c.fig, files, c.files)
		}
	}
}

// One table, two renderings: the text the command prints and the CSV it
// writes come from the same rows, each with its own columns and spellings.
func TestTableRenderings(t *testing.T) {
	type row struct {
		config string
		nodes  int
		err    float64
	}
	rows := []row{{"10", 2, 0.00293}, {"dyn 1k 1.03", 2, 0.5}, {"10", 4, 12}}
	config := colOf("config", "config", -8, func(r row) cell { return str(r.config) })
	nodes := colOf("", "nodes", 0, func(r row) cell { return cell{fmt.Sprint(r.nodes, " processors"), fmt.Sprint(r.nodes)} })
	tab := tabulate(table{title: "A title — with a dash", file: "t.csv", lead: "lead\n", note: "  (note)\n"}, rows,
		config, nodes.grouped(),
		colOf("error", "accuracy_error", 8, func(r row) cell { return pct(r.err) }),
		colOf("mark", "", 0, func(r row) cell { return cell{text: "◆"} }),
		colOf("", "hidden", 0, func(r row) cell { return cell{csv: "a,b"} }))
	var text bytes.Buffer
	tab.writeText(&text)
	wantText := "\nA title — with a dash\n" + strings.Repeat("=", len("A title — with a dash")) + "\nlead\n" +
		"\n  2 processors:\n  config      error mark\n  10          0.29% ◆\n  dyn 1k 1.03   50.00% ◆\n" +
		"\n  4 processors:\n  config      error mark\n  10       1200.00% ◆\n  (note)\n"
	if text.String() != wantText {
		t.Errorf("text rendering:\n%q\nwant\n%q", text.String(), wantText)
	}
	dir := filepath.Join(t.TempDir(), "new", "dir")
	if err := tab.writeCSV(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "t.csv"))
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := "config,nodes,accuracy_error,hidden\n10,2,0.00293,\"a,b\"\ndyn 1k 1.03,2,0.5,\"a,b\"\n10,4,12,\"a,b\"\n"
	if string(got) != wantCSV {
		t.Errorf("CSV rendering:\n%q\nwant\n%q", got, wantCSV)
	}

	// A group column that has a header stays a column: the runs are set apart
	// by a blank line under one header line.
	text.Reset()
	tabulate(table{}, rows, nodes, config.grouped()).writeText(&text)
	if want := "  config  \n\n  10      \n\n  dyn 1k 1.03\n\n  10      \n"; text.String() != want {
		t.Errorf("grouped by a visible column:\n%q\nwant\n%q", text.String(), want)
	}

	// A file that cannot be written in full is an error, not a short CSV.
	if _, err := os.Stat("/dev/full"); err == nil {
		tab.file = "full"
		if err := tab.writeCSV("/dev"); err == nil {
			t.Error("writing to a full device succeeded")
		}
	}
}
