package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"clustersim/internal/experiments"
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

// buildSimfleet compiles the simfleet binary once per test.
func buildSimfleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simfleet")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/simfleet")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/simfleet: %v\n%s", err, out)
	}
	return bin
}

const testManifest = `{
  "schema": "clustersim-fleet-manifest/1",
  "scenarios": [
    {"name": "pp", "workload": "pingpong", "nodes": 2, "quantum": "2us", "max_guest": "5ms"},
    {"name": "ph", "workload": "phases", "nodes": 4, "scale": 0.02, "quantum": "20us", "max_guest": "10ms"}
  ]
}`

// The end-to-end loop: -update writes goldens, a re-run passes, a tampered
// golden fails with exit 1 and writes the -diff-out artifact naming the
// changed scenario.
func TestUpdateCheckTamperCycle(t *testing.T) {
	bin := buildSimfleet(t)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(manifest, []byte(testManifest), 0o644); err != nil {
		t.Fatal(err)
	}

	if out, err := exec.Command(bin, "-manifest", manifest, "-update").CombinedOutput(); err != nil {
		t.Fatalf("-update: %v\n%s", err, out)
	}
	golden := filepath.Join(dir, "golden.json")
	if _, err := os.Stat(golden); err != nil {
		t.Fatalf("golden not written next to the manifest: %v", err)
	}

	out, err := exec.Command(bin, "-manifest", manifest).CombinedOutput()
	if err != nil {
		t.Fatalf("check after update failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fleet ok: 2 scenarios") {
		t.Errorf("check output %q lacks the ok summary", out)
	}

	// Tamper with one fingerprint: the check must fail, name the scenario,
	// and write the diff artifact.
	g, err := experiments.LoadGolden(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Scenarios {
		if g.Scenarios[i].Name == "ph" {
			g.Scenarios[i].Fingerprint = strings.Repeat("0", 64)
		}
	}
	if err := os.WriteFile(golden, g.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	diffPath := filepath.Join(dir, "diff.json")
	out, err = exec.Command(bin, "-manifest", manifest, "-diff-out", diffPath).CombinedOutput()
	if err == nil {
		t.Fatalf("check passed against a tampered golden:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("want exit code 1, got %v", err)
	}
	if !strings.Contains(string(out), "changed ph") {
		t.Errorf("failure output does not name the changed scenario:\n%s", out)
	}
	raw, rerr := os.ReadFile(diffPath)
	if rerr != nil {
		t.Fatalf("diff artifact not written: %v", rerr)
	}
	var d experiments.FleetDiff
	if jerr := json.Unmarshal(raw, &d); jerr != nil {
		t.Fatalf("diff artifact is not JSON: %v\n%s", jerr, raw)
	}
	if len(d.Changed) != 1 || d.Changed[0].Name != "ph" {
		t.Errorf("diff artifact changed = %+v, want exactly ph", d.Changed)
	}
}

// Error paths must be one-line and actionable, never panics.
func TestCLIErrors(t *testing.T) {
	bin := buildSimfleet(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": "clustersim-fleet-manifest/1", "scenarios": [
		{"name": "x", "workload": "wat", "nodes": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ok := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(ok, []byte(testManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no inputs", nil, "nothing to do"},
		{"missing manifest", []string{"-manifest", filepath.Join(dir, "nope.json")}, "no such file"},
		{"invalid manifest", []string{"-manifest", bad}, "unknown workload"},
		{"missing golden", []string{"-manifest", ok}, "-update"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("command succeeded, want error:\n%s", out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("output %q does not mention %q", out, c.want)
			}
			if lines := strings.Count(strings.TrimSpace(string(out)), "\n"); lines > 2 {
				t.Errorf("error output is %d lines, want a short actionable message:\n%s", lines+1, out)
			}
		})
	}
}

// The committed fleet manifest must keep covering the claim surface: its
// size and at least one fault plan.
func TestCommittedManifestCoverage(t *testing.T) {
	m, err := experiments.LoadManifest(filepath.Join(moduleRoot(t), "testdata", "fleet", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Scenarios) < 20 {
		t.Errorf("committed manifest has %d scenarios, the fleet promises >= 20", len(m.Scenarios))
	}
	faulted := 0
	for _, sc := range m.Scenarios {
		if sc.Faults != "" {
			faulted++
		}
	}
	if faulted == 0 {
		t.Error("no scenario carries a fault plan")
	}
}

// Running two hand-picked scenarios of the committed manifest must engage
// the partitionings their names promise: at the ground-truth quantum every
// node is loose, and the mixedwan geometry mixes a tight rack with loose
// nodes.
func TestCommittedManifestEngagesFastPaths(t *testing.T) {
	m, err := experiments.LoadManifest(filepath.Join(moduleRoot(t), "testdata", "fleet", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	pick := func(name string) *experiments.Manifest {
		for _, sc := range m.Scenarios {
			if sc.Name == name {
				return &experiments.Manifest{Schema: experiments.ManifestSchema, Scenarios: []experiments.Scenario{sc}}
			}
		}
		t.Fatalf("scenario %q missing from the committed manifest", name)
		return nil
	}
	full := experiments.RunFleet(pick("pingpong-ground-truth"), 1, nil)[0]
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	if full.Stats.FastFullQuanta == 0 {
		t.Error("pingpong-ground-truth had no fully eligible quantum")
	}
	graded := experiments.RunFleet(pick("uniform-graded-wan"), 1, nil)[0]
	if graded.Err != nil {
		t.Fatal(graded.Err)
	}
	if graded.Stats.FastPartialQuanta == 0 {
		t.Error("uniform-graded-wan had no partially eligible quantum")
	}
}

// The committed goldens must match what the committed manifest produces —
// the in-process version of the CI fleet-smoke gate, so `go test ./...`
// alone catches a stale golden.
func TestCommittedGoldensMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 25-scenario fleet")
	}
	root := moduleRoot(t)
	m, err := experiments.LoadManifest(filepath.Join(root, "testdata", "fleet", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.LoadGolden(filepath.Join(root, "testdata", "fleet", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	outcomes := experiments.RunFleet(m, 0, nil)
	if d := experiments.DiffGolden(outcomes, g); !d.Empty() {
		t.Errorf("fleet diverges from committed goldens (simfleet -update if intentional):\n%s", d.JSON())
	}
}
