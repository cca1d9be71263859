package main

import (
	"math"
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
		{"unknown workload", []string{"-workload", "wat"}, `unknown workload "wat"`},
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
		{"contention missing latency", []string{"-contention", "10e9"}, "-contention wants <bytes/s>:<latency>"},
		{"contention negative rate", []string{"-contention", "-1:500ns"}, "non-negative"},
		// These four ran to completion: NaN bandwidth printed a negative
		// total straggler delay.
		{"contention NaN rate", []string{"-contention", "NaN:500ns"}, "-contention bytes/s"},
		{"contention negative latency", []string{"-contention", "10e9:-50us"}, "-contention latency"},
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

// The flags resolve through experiments.Scenario, the fleet manifest's door,
// so a zero seed means what it means there: seed 1.
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

// -contention rules lookahead out, so a run under it must say so explicitly
// instead of reporting no engaged quanta with no explanation — on both
// runners — and must stay quiet without the flag.
func TestContentionFastPathDiagnostic(t *testing.T) {
	bin := buildClustersim(t)
	const diag = "lookahead    disabled: output tap"
	cases := []struct {
		name string
		args []string
		want bool
	}{
		{"contention alone", []string{"-contention", "10e9:500ns"}, true},
		{"contention parallel", []string{"-workload", "pingpong", "-nodes", "2", "-contention", "10e9:500ns", "-parallel", "-spin", "0"}, true},
		{"no contention", []string{"-workload", "pingpong", "-nodes", "2"}, false},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s run failed: %v\n%s", c.name, err, out)
		}
		if got := strings.Contains(string(out), diag); got != c.want {
			t.Errorf("%s: output-tap diagnostic printed = %v, want %v:\n%s", c.name, got, c.want, out)
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

// FuzzParseContention: a -contention spec is outside input. The parser never
// panics, what it accepts has a finite, non-negative drain rate and a
// non-negative latency, and every refusal names the flag.
func FuzzParseContention(f *testing.F) {
	for _, s := range []string{
		"10e9:500ns", "0:0ns", "10e9", "-1:500ns", "NaN:500ns", "+Inf:500ns",
		"10e9:-50us", "10e9:soon", "1:2:3", ":", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		oq, err := parseContention(spec)
		if err != nil {
			if !strings.Contains(err.Error(), "-contention") {
				t.Errorf("parseContention(%q) error %q does not name -contention", spec, err)
			}
			return
		}
		if !(oq.BytesPerSecond >= 0) || math.IsInf(oq.BytesPerSecond, 0) || oq.Latency < 0 {
			t.Errorf("parseContention(%q) accepted %+v", spec, *oq)
		}
	})
}
