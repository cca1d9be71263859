package main

import (
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

func buildClustersim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "clustersim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/clustersim")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/clustersim: %v\n%s", err, out)
	}
	return bin
}

// Every malformed flag must die with exit 1 and a one-line "clustersim: ..."
// error that names the offending input — never a panic, a usage dump, or a
// silent success.
func TestCLIFlagErrors(t *testing.T) {
	bin := buildClustersim(t)
	trace := filepath.Join(t.TempDir(), "two-rank.json")
	if err := os.WriteFile(trace, []byte(`{"name": "t", "ranks": 2, "ops": [
		[{"op": "send", "dst": 1, "bytes": 8}],
		[{"op": "recv", "src": 0}]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown workload", []string{"-workload", "wat"}, `unknown workload "wat" (want nas.ep, nas.is,`},
		{"zero quantum", []string{"-quantum", "0us"}, "quantum must be positive"},
		{"unparsable quantum", []string{"-quantum", "fast"}, "quantum:"},
		{"dyn missing fields", []string{"-dyn", "1us:1ms"}, "dyn wants min:max:inc:dec"},
		{"dyn bad min", []string{"-dyn", "x:1ms:1.03:0.02"}, "dyn min:"},
		// What Algorithm 1 cannot execute used to panic inside the run, and a
		// NaN factor to abort it later on a garbage quantum.
		{"dyn inc below one", []string{"-dyn", "1us:1000us:0.5:0.02"}, "dyn inc: must exceed 1"},
		{"dyn inc NaN", []string{"-dyn", "1us:1000us:NaN:0.02"}, "dyn inc: must exceed 1"},
		{"dyn max below min", []string{"-dyn", "10us:1us:1.03:0.02"}, "dyn max:"},
		{"dyn dec out of range", []string{"-dyn", "1us:1000us:1.03:1.5"}, "dyn dec: must be in (0,1)"},
		{"unknown topo kind", []string{"-topo", "ring:4:1us:2us"}, "unknown topology kind"},
		{"topo missing fields", []string{"-topo", "ring:4"}, "topo wants rack:"},
		{"topo bad radix", []string{"-topo", "rack:x:1us:2us"}, "topo radix"},
		{"faults unknown field", []string{"-faults", "chaos=1"}, `unknown field "chaos"`},
		{"faults bad window", []string{"-faults", "down=5ms"}, "is not start-end"},
		// These two ran to completion on a negative link latency.
		{"topo negative edge", []string{"-topo", "rack:4:-5us:2us"}, "topo edge latency"},
		{"topo negative wan", []string{"-topo", "mixedwan:4:500ns:-2us"}, "topo wan latency"},
		// These three ran: a 400 µs simulation that exits 0, or for NaN a
		// guest panic inside quantum 0.
		{"negative scale", []string{"-workload", "nas.ep", "-nodes", "2", "-scale", "-1"}, "scale: must be positive and finite"},
		{"zero scale", []string{"-workload", "nas.ep", "-nodes", "2", "-scale", "0"}, "scale: must be positive and finite"},
		{"NaN scale", []string{"-workload", "nas.ep", "-nodes", "2", "-scale", "NaN"}, "scale: must be positive and finite"},
		{"zero nodes", []string{"-nodes", "0", "-workload", "pingpong"}, "need at least 1 node"},
		{"trace rank mismatch", []string{"-tracefile", trace, "-nodes", "4"}, "has 2 ranks but the cluster has 4 nodes"},
		{"trace file missing", []string{"-tracefile", filepath.Join(t.TempDir(), "nope.json")}, "no such file"},
		{"metrics addr unlistenable", []string{"-metrics-addr", "no-port"}, "listen tcp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("clustersim %v succeeded, want error:\n%s", c.args, out)
			}
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("want exit code 1, got %v", err)
			}
			text := strings.TrimSpace(string(out))
			if !strings.Contains(text, c.want) {
				t.Errorf("output %q does not mention %q", text, c.want)
			}
			if !strings.HasPrefix(text, "clustersim:") {
				t.Errorf("error line %q lacks the clustersim: prefix", text)
			}
			if strings.Count(text, "\n") > 0 {
				t.Errorf("error output is multi-line, want one usable line:\n%s", text)
			}
		})
	}
	// The happy path of the trace flag: a good trace with a matching -nodes
	// runs, and replays byte for byte.
	t.Run("trace replays", func(t *testing.T) {
		args := []string{"-tracefile", filepath.Join("testdata", "ring.json"), "-nodes", "4"}
		run := func() string {
			out, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("clustersim %v: %v\n%s", args, err, out)
			}
			return string(out)
		}
		first := run()
		if !strings.Contains(first, "trace.ring ×4") {
			t.Errorf("clustersim %v does not name the trace:\n%s", args, first)
		}
		if again := run(); again != first {
			t.Errorf("trace run does not replay:\n%s\nvs\n%s", first, again)
		}
	})
}

// The scalar lookahead mode went, and its flag with it: naming it is a usage
// error, not a silently accepted no-op.
func TestLookaheadFlagIsGone(t *testing.T) {
	out, err := exec.Command(buildClustersim(t), "-lookahead", "scalar").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -lookahead") {
		t.Errorf("clustersim -lookahead scalar: err %v, want exit 2 and an undefined-flag message:\n%s", err, out)
	}
}

// The flags resolve through experiments.Scenario, the fleet's door, so a
// zero seed means what it means there: seed 1.
func TestZeroSeedsMeanOne(t *testing.T) {
	bin := buildClustersim(t)
	run := func(seed, faultSeed string) string {
		t.Helper()
		out, err := exec.Command(bin, "-workload", "reliable-phases", "-nodes", "4", "-quantum", "20us",
			"-faults", "loss=0.02,jitter=5us", "-seed", seed, "-fault-seed", faultSeed).Output()
		if err != nil {
			t.Fatalf("clustersim -seed %s -fault-seed %s: %v\n%s", seed, faultSeed, err, out)
		}
		return string(out)
	}
	one := run("1", "1")
	if zero := run("0", "0"); zero != one {
		t.Errorf("zero seeds are not seed 1:\n%s\nvs\n%s", zero, one)
	}
	if run("2", "1") == one || run("1", "2") == one {
		t.Error("test premise broken: the seeds do not move the output")
	}
}

// A duplicated frame is routed once and may be delivered, and straggle,
// twice: the -progress line must carry the run's packet and straggler counts
// as they are, not a ratio of them that reads above 100%.
func TestProgressCountsDuplicates(t *testing.T) {
	cmd := exec.Command(buildClustersim(t), "-workload", "reliable-phases", "-nodes", "4", "-quantum", "1ms",
		"-faults", "dup=0.9", "-scale", "0.1", "-progress")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("clustersim: %v\n%s", err, stderr.String())
	}
	var packets, deliveries, stragglers int
	for _, line := range strings.Split(string(out), "\n") {
		fmt.Sscanf(line, "packets %d routed, %d deliveries", &packets, &deliveries)
		fmt.Sscanf(line, "stragglers %d", &stragglers)
	}
	if stragglers <= packets || deliveries <= packets {
		t.Fatalf("test premise broken: %d packets, %d deliveries, %d stragglers — want duplicates to straggle past the packet count:\n%s",
			packets, deliveries, stragglers, out)
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	final := lines[len(lines)-1]
	if want := fmt.Sprintf("| packets %d | stragglers %d", packets, stragglers); !strings.HasSuffix(final, want) {
		t.Errorf("final progress line %q does not end %q", final, want)
	}
	for _, f := range strings.Fields(final) {
		var pct float64
		if _, err := fmt.Sscanf(f, "%f%%", &pct); err == nil && pct > 100 {
			t.Errorf("final progress line %q reads %s", final, f)
		}
	}
}

// -chart and -traffic draw from the run's recorder, which both runners feed:
// the goroutine runner must print the charts too (it used to ignore the flags
// silently), and the deterministic engine's must replay byte for byte.
func TestChartsOnBothRunners(t *testing.T) {
	bin := buildClustersim(t)
	base := []string{"-workload", "phases", "-nodes", "4", "-dyn", "1us:1000us:1.05:0.02", "-chart", "-traffic", "-width", "60"}
	run := func(extra ...string) string {
		t.Helper()
		args := append(append([]string{}, base...), extra...)
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("clustersim %v: %v\n%s", args, err, out)
		}
		for _, want := range []string{"quantum duration (µs) over guest time", "traffic: 4 nodes"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("clustersim %v printed no %q chart:\n%s", args, want, out)
			}
		}
		return string(out)
	}
	if first, again := run(), run(); first != again {
		t.Errorf("chart output does not replay:\n%s\nvs\n%s", first, again)
	}
	// Wall-clock run: the charts have to be there and carry marks — a traffic
	// row with a packet glyph in it — not match anything.
	par := run("-parallel", "-spin", "0")
	marked := false
	for _, line := range strings.Split(par, "\n") {
		if strings.HasPrefix(line, "  0 |") && strings.ContainsAny(line, ".:+*#") {
			marked = true
		}
	}
	if !marked {
		t.Errorf("-parallel traffic chart has no packet marks on node 0:\n%s", par)
	}
}
