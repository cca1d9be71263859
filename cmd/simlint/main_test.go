package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// buildSimlint compiles the simlint binary once per test run.
func buildSimlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simlint")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/simlint")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/simlint: %v\n%s", err, out)
	}
	return bin
}

// TestStandaloneCleanRepo is the acceptance gate: the repository itself must
// be simlint-clean (findings either fixed or carrying justified directives).
func TestStandaloneCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	bin := buildSimlint(t)
	cmd := exec.Command(bin, "-C", moduleRoot(t), "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simlint ./... reported findings or failed: %v\n%s", err, out)
	}
}

// TestStandaloneSkipsTestdata pins the corpus-exclusion rule: naming a
// golden-corpus package directly (the trees `go list ./...` skips by
// convention but explicit patterns can reach) must analyze nothing and exit
// clean, never lint the corpus's deliberate findings as product code.
func TestStandaloneSkipsTestdata(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	bin := buildSimlint(t)
	cmd := exec.Command(bin, "-C", moduleRoot(t),
		"./internal/analysis/maporder/testdata/src/example.com/app")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("simlint over a testdata corpus must exit clean, got: %v\n%s", err, out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Fatalf("simlint over a testdata corpus must report nothing, got:\n%s", out)
	}
}
