package experiments

import (
	"errors"
	"strings"
	"testing"
)

// tinyManifest is a fast three-scenario fleet touching the three partitioning
// shapes: one tight partition, all nodes loose, and the mixed mixedwan
// geometry.
const tinyManifest = `{
  "schema": "clustersim-fleet-manifest/1",
  "scenarios": [
    {"name": "classic", "workload": "pingpong", "nodes": 2, "quantum": "2us",
     "max_guest": "5ms"},
    {"name": "fast", "workload": "pingpong", "nodes": 4, "quantum": "1us",
     "max_guest": "5ms"},
    {"name": "graded", "workload": "uniform", "nodes": 6, "quantum": "5us",
     "topo": "mixedwan:4:500ns:50us", "max_guest": "50ms"}
  ]
}`

func parseTiny(t *testing.T) *Manifest {
	t.Helper()
	m, err := ParseManifest(strings.NewReader(tinyManifest))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseManifestValidation(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"bad schema", `{"schema": "nope/9", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2}]}`, "schema"},
		{"no scenarios", `{"schema": "clustersim-fleet-manifest/1", "scenarios": []}`, "no scenarios"},
		{"missing name", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"workload": "pingpong", "nodes": 2}]}`, "no name"},
		{"duplicate name", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [
			{"name": "a", "workload": "pingpong", "nodes": 2},
			{"name": "a", "workload": "pingpong", "nodes": 2}]}`, "duplicate"},
		{"unknown workload", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "wat", "nodes": 2}]}`, "unknown workload"},
		{"zero nodes", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong"}]}`, "nodes"},
		{"bad quantum", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "quantum": "fast"}]}`, "quantum"},
		{"negative quantum", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "quantum": "-1us"}]}`, "positive"},
		{"bad dyn", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1us:1ms"}]}`, "dyn"},
		{"dyn the policy rejects", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1us:1ms:0.5:0.02"}]}`, "dyn inc:"},
		{"bad topo", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "topo": "ring:4"}]}`, "topo"},
		// The scalar mode went: a quantum's partitioning is all there is, and a
		// manifest still carrying the field is refused by name.
		{"bad lookahead", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "lookahead": "scalar"}]}`, `unknown field "lookahead"`},
		{"bad faults", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "faults": "chaos=1"}]}`, "chaos"},
		// The worker matrix went with the engine's pool: a manifest still
		// carrying the field is refused by name, whatever counts it lists.
		{"negative workers", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "workers": [-1]}]}`, `unknown field "workers"`},
		{"unknown field", `{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "qantum": "1us"}]}`, "qantum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseManifest(strings.NewReader(c.json))
			if err == nil {
				t.Fatal("manifest accepted, want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if m := parseTiny(t); len(m.Scenarios) != 3 {
		t.Errorf("tiny manifest parsed %d scenarios, want 3", len(m.Scenarios))
	}
}

// FuzzParseManifest: a manifest file never panics ParseManifest; every
// scenario of a manifest it accepts resolves, and a manifest it refuses is
// refused with an error that says it was the fleet manifest.
func FuzzParseManifest(f *testing.F) {
	for _, s := range []string{
		// phases-rack, as committed in testdata/fleet/manifest.json.
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "phases-rack", "workload": "phases", "nodes": 8,
		  "scale": 0.05, "quantum": "20us", "topo": "rack:4:500ns:2us", "max_guest": "20ms"}]}`,
		tinyManifest,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "scale": -1}]}`,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "dyn": "1us:1ms:NaN:0.02"}]}`,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "uniform", "nodes": 9223372036854775807, "topo": "mixedwan:4:500ns:-2us"}]}`,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a", "workload": "pingpong", "nodes": 2, "max_guest": "soon"}]}`,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": null}`,
		`{"schema": "clustersim-fleet-manifest/1", "scenarios": [{"name": "a"`,
		`[]`, `null`, ``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := ParseManifest(strings.NewReader(doc))
		if err != nil {
			if m != nil || !strings.HasPrefix(err.Error(), "fleet manifest:") {
				t.Fatalf("ParseManifest(%q) = manifest %v, error %q; want no manifest and a fleet manifest: error", doc, m != nil, err)
			}
			return
		}
		for i := range m.Scenarios {
			if _, err := m.Scenarios[i].Resolve(); err != nil {
				t.Fatalf("ParseManifest(%q) accepted scenario %q, which does not resolve: %v", doc, m.Scenarios[i].Name, err)
			}
		}
	})
}

// The fleet must be deterministic end to end: outcomes in manifest order and
// two full fleet runs byte-equal.
func TestRunFleetDeterministic(t *testing.T) {
	m := parseTiny(t)
	run := func() []ScenarioOutcome { return RunFleet(m, 2, nil) }
	a, b := run(), run()
	if len(a) != len(m.Scenarios) {
		t.Fatalf("got %d outcomes, want %d", len(a), len(m.Scenarios))
	}
	for i, o := range a {
		if o.Name != m.Scenarios[i].Name {
			t.Errorf("outcome %d is %q, want manifest order %q", i, o.Name, m.Scenarios[i].Name)
		}
		if o.Err != nil {
			t.Errorf("%s: %v", o.Name, o.Err)
		}
		if len(o.Fingerprint) != 64 {
			t.Errorf("%s: fingerprint %q is not a sha256 hex", o.Name, o.Fingerprint)
		}
		if o.Fingerprint != b[i].Fingerprint {
			t.Errorf("%s: fingerprint differs across fleet runs", o.Name)
		}
	}
	// Distinct scenarios must not collide.
	if a[0].Fingerprint == a[1].Fingerprint || a[1].Fingerprint == a[2].Fingerprint {
		t.Error("distinct scenarios produced equal fingerprints")
	}
}

func TestGoldenRoundTripAndDiff(t *testing.T) {
	m := parseTiny(t)
	outcomes := RunFleet(m, 0, nil)
	g, err := BuildGolden(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffGolden(outcomes, g); !d.Empty() {
		t.Fatalf("self-diff not empty:\n%s", d.JSON())
	}

	// A changed fingerprint is reported by name.
	bent := *g
	bent.Scenarios = append([]GoldenEntry(nil), g.Scenarios...)
	for i := range bent.Scenarios {
		if bent.Scenarios[i].Name == "fast" {
			bent.Scenarios[i].Fingerprint = strings.Repeat("0", 64)
		}
	}
	d := DiffGolden(outcomes, &bent)
	if len(d.Changed) != 1 || d.Changed[0].Name != "fast" {
		t.Errorf("changed = %+v, want exactly scenario fast", d.Changed)
	}

	// A scenario absent from the golden is missing; a golden entry no
	// longer in the manifest is extra.
	short := *g
	short.Scenarios = g.Scenarios[1:]
	d = DiffGolden(outcomes, &short)
	if len(d.Missing) != 1 || d.Missing[0] != g.Scenarios[0].Name {
		t.Errorf("missing = %v, want [%s]", d.Missing, g.Scenarios[0].Name)
	}
	d = DiffGolden(outcomes[1:], g)
	if len(d.Extra) != 1 || d.Extra[0] != outcomes[0].Name {
		t.Errorf("extra = %v, want [%s]", d.Extra, outcomes[0].Name)
	}

	// An encoding bump is called out explicitly.
	old := *g
	old.FingerprintSchema = "clustersim-fp/0"
	if d := DiffGolden(outcomes, &old); d.EncodingChanged == "" {
		t.Error("fingerprint-schema mismatch not reported")
	}

	// A failed scenario lands in Failed, never silently in Changed.
	broken := append([]ScenarioOutcome(nil), outcomes...)
	broken[2].Err = errors.New("synthetic failure")
	d = DiffGolden(broken, g)
	if len(d.Failed) != 1 || d.Failed[0].Name != broken[2].Name {
		t.Errorf("failed = %+v, want scenario %s", d.Failed, broken[2].Name)
	}
	if _, err := BuildGolden(broken); err == nil {
		t.Error("BuildGolden accepted a failed outcome")
	}
}
