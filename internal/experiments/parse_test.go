package experiments

import (
	"math"
	"strings"
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// drivePolicy constructs the policy and steps it through silence and traffic:
// whatever ParsePolicy accepted must construct without panicking and only
// ever issue positive quanta (the engine rejects anything else mid-run).
func drivePolicy(t *testing.T, ctor func() quantum.Policy) {
	t.Helper()
	p := ctor()
	if q := p.First(); q <= 0 {
		t.Fatalf("policy %q: first quantum %v", p.Name(), q)
	}
	now := simtime.Guest(0)
	for i := 0; i < 64; i++ {
		q := p.Next(quantum.Feedback{Packets: i / 16 % 2, Now: now})
		if q <= 0 {
			t.Fatalf("policy %q: step %d issued quantum %v", p.Name(), i, q)
		}
		now = now.Add(q)
	}
}

// A -dyn (or manifest dyn) spec the adaptive policy cannot execute must come
// back as an error naming the field — at the parent commit the constructor
// panicked inside cluster.Run, and a NaN factor slipped through to a
// "non-positive quantum" abort.
func TestParsePolicy(t *testing.T) {
	bad := []struct{ quantum, dyn, want string }{
		{"", "1us:1000us:0.5:0.02", "dyn inc:"},
		{"", "1us:1000us:1:0.02", "dyn inc:"},
		{"", "1us:1000us:NaN:0.02", "dyn inc:"},
		{"", "10us:1us:1.03:0.02", "dyn max:"},
		{"", "0us:1us:1.03:0.02", "dyn min:"},
		{"", "-1us:1us:1.03:0.02", "dyn min:"},
		{"", "1us:1000us:1.03:0", "dyn dec:"},
		{"", "1us:1000us:1.03:1", "dyn dec:"},
		{"", "1us:1000us:1.03:NaN", "dyn dec:"},
		{"", "1us:1000us:1.03:-Inf", "dyn dec:"},
		{"", "1us:1000us:fast:0.02", "dyn inc:"},
		{"", "1us:soon:1.03:0.02", "dyn max:"},
		{"", "1us:1000us:1.03", "min:max:inc:dec"},
		{"0us", "", "positive"},
		{"soon", "", "quantum:"},
	}
	for _, c := range bad {
		ctor, err := ParsePolicy(c.quantum, c.dyn)
		if err == nil || ctor != nil {
			t.Errorf("ParsePolicy(%q, %q) accepted, want an error mentioning %q", c.quantum, c.dyn, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParsePolicy(%q, %q) = %q, want it to mention %q", c.quantum, c.dyn, err, c.want)
		}
	}
	good := []struct{ quantum, dyn, name string }{
		{"", "", "Q=1µs"},
		{"100us", "", "Q=100µs"},
		{"100us", "1us:1000us:1.03:0.02", "dyn 1µs:1ms 1.03:0.02"},
		{"", "2us:2us:+Inf:0.5", "dyn 2µs:2µs +Inf:0.50"},
	}
	for _, c := range good {
		ctor, err := ParsePolicy(c.quantum, c.dyn)
		if err != nil {
			t.Errorf("ParsePolicy(%q, %q): %v", c.quantum, c.dyn, err)
			continue
		}
		if got := ctor().Name(); got != c.name {
			t.Errorf("ParsePolicy(%q, %q) built %q, want %q", c.quantum, c.dyn, got, c.name)
		}
		drivePolicy(t, ctor)
	}
}

// FuzzParsePolicy: never panics; a returned constructor never panics when
// called, nor does the policy it builds when stepped.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range [][2]string{
		{"1us", ""}, {"", "1us:1000us:1.03:0.02"}, {"", "1us:1000us:0.5:0.02"},
		{"", "10us:1us:1.03:0.02"}, {"", "1us:1000us:NaN:0.02"}, {"", "1us:1e300s:Inf:1e-320"},
		{"-1us", ""}, {"", ":::"}, {"", "1us:1us:1.0000000000000002:0.9999999999999999"},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, quantumSpec, dynSpec string) {
		ctor, err := ParsePolicy(quantumSpec, dynSpec)
		if (err == nil) == (ctor == nil) {
			t.Fatalf("ParsePolicy(%q, %q) = constructor %v, error %v", quantumSpec, dynSpec, ctor != nil, err)
		}
		if err == nil {
			drivePolicy(t, ctor)
		}
	})
}

// A topology with a negative latency used to parse, run to completion and
// print nonsense; it must be refused with the field named.
func TestParseTopo(t *testing.T) {
	bad := []struct{ spec, want string }{
		{"rack:4:-5us:2us", "topo edge latency"},
		{"rack:4:500ns:-2us", "topo core latency"},
		{"mixedwan:4:-500ns:2us", "topo rack latency"},
		{"mixedwan:4:500ns:-2us", "topo wan latency"},
		{"rack:4:soon:2us", "topo edge latency"},
	}
	for _, c := range bad {
		sw, err := ParseTopo(c.spec)
		if err == nil || sw != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseTopo(%q) = model %v, error %v; want an error mentioning %q", c.spec, sw != nil, err, c.want)
		}
	}
	for _, spec := range []string{"rack:4:500ns:2us", "mixedwan:4:0ns:50us"} {
		if _, err := ParseTopo(spec); err != nil {
			t.Errorf("ParseTopo(%q): %v", spec, err)
		}
	}
}

// FuzzParseTopo: never panics; a returned switch model never panics when
// asked for a latency, whatever the node pair.
func FuzzParseTopo(f *testing.F) {
	for _, s := range []string{
		"rack:4:500ns:2us", "mixedwan:4:500ns:50us", "rack:0:1us:1us", "mixedwan:-1:1us:1us",
		"ring:4:1us:1us", "rack:4:soon:2us", "rack:9223372036854775807:1us:-1us", ":::", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sw, err := ParseTopo(spec)
		if (err == nil) == (sw == nil) {
			t.Fatalf("ParseTopo(%q) = model %v, error %v", spec, sw != nil, err)
		}
		if err != nil {
			return
		}
		for _, pair := range [][2]int{{0, 1}, {1, 0}, {0, 63}, {63, 62}, {0, 1 << 30}} {
			sw.Latency(netmodel.MinProbe(), pair[0], pair[1])
		}
	})
}

// A scale that is not positive and finite used to run a degenerate simulation
// and exit 0 (or, for NaN, panic inside the guest); the workload registry
// refuses it once, for clustersim, paperfigs and fleet manifests alike.
func TestResolveWorkloadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, name := range []string{"nas.ep", "namd", "pingpong"} {
			if _, err := ResolveWorkload(name, scale); err == nil || !strings.Contains(err.Error(), "scale: must be positive and finite") {
				t.Errorf("ResolveWorkload(%q, %v) = %v, want an error naming the scale", name, scale, err)
			}
		}
	}
	if _, err := ResolveWorkload("nas.ep", 0.25); err != nil {
		t.Errorf("ResolveWorkload(nas.ep, 0.25): %v", err)
	}
	const manifest = `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "scale": %s}]}`
	if _, err := ParseManifest(strings.NewReader(strings.Replace(manifest, "%s", "-1", 1))); err == nil || !strings.Contains(err.Error(), `scenario "a": scale:`) {
		t.Errorf("manifest scale -1: %v, want an error naming the scenario and the scale", err)
	}
	// An absent or zero manifest scale still means 1.0.
	if _, err := ParseManifest(strings.NewReader(strings.Replace(manifest, "%s", "0", 1))); err != nil {
		t.Errorf("manifest scale 0: %v", err)
	}
}
