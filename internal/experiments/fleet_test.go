package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"clustersim/internal/cluster"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
)

// fleet is the scenario regression fleet (DESIGN.md §8): every partitioning
// shape (one tight partition, all nodes loose, several tight partitions,
// tight beside loose), fault plans and the NAS/NAMD workloads, each run once
// by TestFleet and pinned by its fingerprint in testdata/fleet_golden.json.
var fleet = []Scenario{
	{Name: "pingpong-ground-truth", Workload: "pingpong", Scale: 1, Nodes: 2, Quantum: "1us", MaxGuest: "10ms"},
	{Name: "pingpong-coarse", Workload: "pingpong", Scale: 1, Nodes: 4, Quantum: "100us", MaxGuest: "100ms"},
	{Name: "pingpong-adaptive", Workload: "pingpong", Scale: 1, Nodes: 4, Dyn: "1us:1ms:1.03:0.02", MaxGuest: "10ms"},
	{Name: "phases-ground-truth", Workload: "phases", Scale: 0.05, Nodes: 8, Quantum: "1us", MaxGuest: "20ms"},
	{Name: "phases-coarse", Workload: "phases", Scale: 0.05, Nodes: 8, Quantum: "50us", MaxGuest: "20ms"},
	{Name: "phases-rack", Workload: "phases", Scale: 0.05, Nodes: 8, Quantum: "20us", Topo: "rack:4:500ns:2us", MaxGuest: "20ms"},
	{Name: "phases-jitter", Workload: "phases", Scale: 0.05, Nodes: 6, Quantum: "20us", Faults: "jitter=5us", MaxGuest: "20ms"},
	{Name: "phases-slow-node", Workload: "phases", Scale: 0.05, Nodes: 6, Quantum: "20us", Faults: "slow=3:2.5", MaxGuest: "40ms"},
	{Name: "uniform-ground-truth", Workload: "uniform", Scale: 1, Nodes: 6, Quantum: "1us", MaxGuest: "50ms"},
	{Name: "uniform-graded-wan", Workload: "uniform", Scale: 1, Nodes: 6, Quantum: "5us", Topo: "mixedwan:4:500ns:50us", MaxGuest: "50ms"},
	{Name: "uniform-graded-wan-64", Workload: "uniform", Scale: 1, Nodes: 64, Quantum: "2us", Topo: "mixedwan:4:500ns:2us", MaxGuest: "50ms"},
	{Name: "uniform-rack", Workload: "uniform", Scale: 1, Nodes: 8, Quantum: "10us", Topo: "rack:4:500ns:2us", MaxGuest: "50ms"},
	{Name: "uniform-lossy", Workload: "uniform", Scale: 1, Nodes: 6, Quantum: "5us", Faults: "loss=0.1,dup=0.02", FaultSeed: 7, MaxGuest: "50ms"},
	{Name: "silent-ground-truth", Workload: "silent", Scale: 1, Nodes: 4, Quantum: "1ms", MaxGuest: "100ms"},
	{Name: "silent-adaptive", Workload: "silent", Scale: 1, Nodes: 4, Dyn: "10us:5ms:1.1:0.5", MaxGuest: "100ms"},
	{Name: "reliable-lossy", Workload: "reliable-phases", Scale: 0.02, Nodes: 4, Quantum: "20us", Faults: "loss=0.05,dup=0.01", MaxGuest: "100ms"},
	{Name: "reliable-down-window", Workload: "reliable-phases", Scale: 0.02, Nodes: 4, Quantum: "20us", Faults: "down=1ms-2ms", MaxGuest: "100ms"},
	{Name: "nas-ep", Workload: "nas.ep", Scale: 0.05, Nodes: 4, Quantum: "20us", MaxGuest: "2s"},
	{Name: "nas-is", Workload: "nas.is", Scale: 0.05, Nodes: 4, Quantum: "20us", MaxGuest: "2s"},
	{Name: "nas-cg", Workload: "nas.cg", Scale: 0.05, Nodes: 4, Quantum: "20us", MaxGuest: "2s"},
	{Name: "nas-mg", Workload: "nas.mg", Scale: 0.05, Nodes: 4, Quantum: "20us", MaxGuest: "2s"},
	{Name: "nas-lu", Workload: "nas.lu", Scale: 0.05, Nodes: 4, Quantum: "20us", MaxGuest: "2s"},
	{Name: "nas-ft", Workload: "nas.ft", Scale: 0.05, Nodes: 4, Quantum: "50us", MaxGuest: "2s"},
	{Name: "nas-bt", Workload: "nas.bt", Scale: 0.05, Nodes: 4, Quantum: "50us", MaxGuest: "2s"},
	{Name: "namd-adaptive", Workload: "namd", Scale: 0.05, Nodes: 8, Dyn: "1us:1ms:1.03:0.02", MaxGuest: "2s"},
}

var update = flag.Bool("update", false, "rewrite testdata/fleet_golden.json from this run")

// fleetGolden is testdata/fleet_golden.json: one fingerprint per scenario,
// sorted by name, and the cluster encoding they were computed under, so an
// encoding bump is told apart from a simulation change.
type fleetGolden struct {
	Schema            string       `json:"schema"`
	FingerprintSchema string       `json:"fingerprint_schema"`
	Scenarios         []fleetEntry `json:"scenarios"`
}

type fleetEntry struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

const fleetGoldenSchema = "clustersim-fleet/1"

// buildFleetGolden records one fingerprint per row; a failed run has none to
// record.
func buildFleetGolden(rows []Scenario, runs []fleetRun) (fleetGolden, error) {
	g := fleetGolden{Schema: fleetGoldenSchema, FingerprintSchema: cluster.FingerprintSchema}
	for i, r := range runs {
		if r.err != nil {
			return fleetGolden{}, fmt.Errorf("%s: %w", rows[i].Name, r.err)
		}
		g.Scenarios = append(g.Scenarios, fleetEntry{rows[i].Name, r.fingerprint})
	}
	sort.Slice(g.Scenarios, func(i, j int) bool { return g.Scenarios[i].Name < g.Scenarios[j].Name })
	return g, nil
}

// encode is the golden's canonical form: two-space indent, trailing newline.
func (g fleetGolden) encode() []byte {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return append(b, '\n')
}

// parseFleetGolden decodes a golden, refusing another file format and
// fingerprints computed under another cluster encoding.
func parseFleetGolden(b []byte) (fleetGolden, error) {
	var g fleetGolden
	if err := json.Unmarshal(b, &g); err != nil {
		return g, err
	}
	if g.Schema != fleetGoldenSchema {
		return g, fmt.Errorf("schema %q, want %q", g.Schema, fleetGoldenSchema)
	}
	if g.FingerprintSchema != cluster.FingerprintSchema {
		return g, fmt.Errorf("fingerprints in encoding %q but this build computes %q: the encoding changed, so re-record with make fleet-update",
			g.FingerprintSchema, cluster.FingerprintSchema)
	}
	return g, nil
}

// verdicts holds each row's run to the golden: problems[i] is empty when row
// i reproduced its fingerprint, and stale names the golden's entries that no
// row pins.
func (g fleetGolden) verdicts(rows []Scenario, runs []fleetRun) (problems, stale []string) {
	want := make(map[string]string, len(g.Scenarios))
	for _, e := range g.Scenarios {
		want[e.Name] = e.Fingerprint
	}
	problems = make([]string, len(rows))
	for i, sc := range rows {
		w, ok := want[sc.Name]
		delete(want, sc.Name)
		switch r := runs[i]; {
		case r.err != nil:
			problems[i] = r.err.Error()
		case !ok:
			problems[i] = "no fingerprint in the golden (record it with make fleet-update)"
		case r.fingerprint != w:
			problems[i] = fmt.Sprintf("fingerprint %s, golden %s: the simulated outcome changed (re-record with make fleet-update if intended)", r.fingerprint, w)
		}
	}
	for _, e := range g.Scenarios {
		if _, ok := want[e.Name]; ok {
			stale = append(stale, e.Name)
		}
	}
	return problems, stale
}

// fleetRun is one scenario's run: its fingerprint — the hex SHA-256 of the
// canonical result encoding followed by the profiler report's JSON — and its
// engine statistics.
type fleetRun struct {
	fingerprint string
	stats       cluster.Stats
	err         error
}

func runFleetScenario(sc Scenario) fleetRun {
	rc, err := sc.Resolve()
	if err != nil {
		return fleetRun{err: err}
	}
	rec, profiler := &obs.Recorder{}, prof.New()
	cfg := rc.Env.Config(rc.Workload, sc.Nodes, rc.Policy)
	cfg.Observer = obs.Multi(rec, profiler)
	res, err := cluster.Run(cfg)
	if err != nil {
		return fleetRun{err: err}
	}
	h := sha256.New()
	h.Write(cluster.CanonicalResult(res, rec))
	h.Write(profiler.Report().JSON())
	return fleetRun{fingerprint: hex.EncodeToString(h.Sum(nil)), stats: res.Stats}
}

// runFleet runs every row through runAll on the given number of workers and
// returns the runs in row order, each carrying its own error.
func runFleet(rows []Scenario, workers int) []fleetRun {
	runs := make([]fleetRun, len(rows))
	jobs := make([]func() error, len(rows))
	for i, sc := range rows {
		jobs[i] = func() error { runs[i] = runFleetScenario(sc); return runs[i].err }
	}
	_ = runAll(workers, jobs)
	return runs
}

// TestFleet runs every scenario of the fleet and holds its fingerprint to the
// committed golden. After an intentional change to a simulated outcome,
// re-record with make fleet-update and commit the golden diff for review.
func TestFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 25-scenario fleet")
	}
	runs := runFleet(fleet, 0)
	path := filepath.Join("testdata", "fleet_golden.json")
	if *update {
		g, err := buildFleetGolden(fleet, runs)
		if err != nil {
			t.Fatalf("refusing to write the golden: %v", err)
		}
		if err := os.WriteFile(path, g.encode(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with make fleet-update)", err)
	}
	g, err := parseFleetGolden(b)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	problems, stale := g.verdicts(fleet, runs)
	for i, sc := range fleet {
		t.Run(sc.Name, func(t *testing.T) {
			if problems[i] != "" {
				t.Errorf("%s: %s", path, problems[i])
			}
		})
	}
	for _, name := range stale {
		t.Errorf("%s pins %q, which is not in the fleet", path, name)
	}
}

// tinyFleet is a fast three-scenario fleet touching the three partitioning
// shapes: one tight partition, all nodes loose, and the mixed mixedwan
// geometry. Its rows are in name order, as a golden lists them.
var tinyFleet = []Scenario{
	{Name: "classic", Workload: "pingpong", Scale: 1, Nodes: 2, Quantum: "2us", MaxGuest: "5ms"},
	{Name: "fast", Workload: "pingpong", Scale: 1, Nodes: 4, Quantum: "1us", MaxGuest: "5ms"},
	{Name: "graded", Workload: "uniform", Scale: 1, Nodes: 6, Quantum: "5us", Topo: "mixedwan:4:500ns:50us", MaxGuest: "50ms"},
}

// The fleet must be deterministic end to end: runs in row order, and two
// fleet runs on different worker counts equal fingerprint for fingerprint.
func TestRunFleetDeterministic(t *testing.T) {
	a, b := runFleet(tinyFleet, 1), runFleet(tinyFleet, 2)
	if len(a) != len(tinyFleet) {
		t.Fatalf("got %d runs, want %d", len(a), len(tinyFleet))
	}
	for i, r := range a {
		name := tinyFleet[i].Name
		if r.err != nil {
			t.Errorf("%s: %v", name, r.err)
		}
		if len(r.fingerprint) != 64 {
			t.Errorf("%s: fingerprint %q is not a sha256 hex", name, r.fingerprint)
		}
		if r.fingerprint != b[i].fingerprint {
			t.Errorf("%s: fingerprint differs across fleet runs", name)
		}
		if r.fingerprint != runFleetScenario(tinyFleet[i]).fingerprint {
			t.Errorf("%s: fingerprint differs from a run of the scenario alone", name)
		}
	}
	// Distinct scenarios must not collide.
	if a[0].fingerprint == a[1].fingerprint || a[1].fingerprint == a[2].fingerprint {
		t.Error("distinct scenarios produced equal fingerprints")
	}
}

// The golden's encoding round-trips, the committed file is in it byte for
// byte, and every way a run can disagree with a golden is reported by name.
func TestGoldenRoundTripAndDiff(t *testing.T) {
	runs := runFleet(tinyFleet, 0)
	g, err := buildFleetGolden(tinyFleet, runs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseFleetGolden(g.encode())
	if err != nil || !bytes.Equal(back.encode(), g.encode()) {
		t.Fatalf("golden does not round-trip: error %v", err)
	}
	clean := func(problems []string) bool {
		return !slices.ContainsFunc(problems, func(p string) bool { return p != "" })
	}
	if problems, stale := g.verdicts(tinyFleet, runs); !clean(problems) || len(stale) != 0 {
		t.Fatalf("self-check not clean: problems %q, stale %v", problems, stale)
	}

	// The committed golden is already in the encoding -update writes.
	committed, err := os.ReadFile(filepath.Join("testdata", "fleet_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if cg, err := parseFleetGolden(committed); err != nil || !bytes.Equal(cg.encode(), committed) {
		t.Errorf("testdata/fleet_golden.json is not in the canonical encoding (error %v)", err)
	}

	// A changed fingerprint is reported against its scenario alone.
	bent := g
	bent.Scenarios = slices.Clone(g.Scenarios)
	bent.Scenarios[1].Fingerprint = strings.Repeat("0", 64)
	problems, _ := bent.verdicts(tinyFleet, runs)
	if problems[0] != "" || !strings.Contains(problems[1], "outcome changed") || problems[2] != "" {
		t.Errorf("problems = %q, want exactly scenario fast changed", problems)
	}

	// A scenario absent from the golden is missing; a golden entry no
	// longer in the fleet is stale.
	short := g
	short.Scenarios = g.Scenarios[1:]
	if problems, _ := short.verdicts(tinyFleet, runs); !strings.Contains(problems[0], "no fingerprint") || !clean(problems[1:]) {
		t.Errorf("problems = %q, want %s missing", problems, tinyFleet[0].Name)
	}
	if _, stale := g.verdicts(tinyFleet[1:], runs[1:]); !slices.Equal(stale, []string{tinyFleet[0].Name}) {
		t.Errorf("stale = %v, want [%s]", stale, tinyFleet[0].Name)
	}

	// An encoding bump is called out explicitly.
	old := g
	old.FingerprintSchema = "clustersim-fp/0"
	if _, err := parseFleetGolden(old.encode()); err == nil || !strings.Contains(err.Error(), "encoding changed") {
		t.Errorf("fingerprint-schema mismatch: error %v, want one saying the encoding changed", err)
	}

	// A failed scenario is reported with its error, never as a changed
	// fingerprint, and leaves no golden to write.
	broken := slices.Clone(runs)
	broken[2].err = errors.New("synthetic failure")
	if problems, _ := g.verdicts(tinyFleet, broken); !clean(problems[:2]) || problems[2] != "synthetic failure" {
		t.Errorf("problems = %q, want scenario %s failed", problems, tinyFleet[2].Name)
	}
	if _, err := buildFleetGolden(tinyFleet, broken); err == nil {
		t.Error("buildFleetGolden accepted a failed run")
	}
}

// checkFleetTable holds a fleet table to what its golden keys on: at least
// one row, a non-empty name unique to each row, and every row resolving.
func checkFleetTable(rows []Scenario) error {
	if len(rows) == 0 {
		return errors.New("no scenarios")
	}
	names := map[string]bool{}
	for i, sc := range rows {
		switch {
		case sc.Name == "":
			return fmt.Errorf("scenario %d has no name", i)
		case names[sc.Name]:
			return fmt.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if _, err := sc.Resolve(); err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
	}
	return nil
}

func TestFleetTableValidation(t *testing.T) {
	pingpong := Scenario{Name: "a", Workload: "pingpong", Scale: 1, Nodes: 2}
	unnamed := pingpong
	unnamed.Name = ""
	cases := []struct {
		name string
		rows []Scenario
		want string
	}{
		{"no scenarios", nil, "no scenarios"},
		{"missing name", []Scenario{unnamed}, "no name"},
		{"duplicate name", []Scenario{pingpong, pingpong}, "duplicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkFleetTable(c.rows)
			if err == nil {
				t.Fatal("table accepted, want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	if err := checkFleetTable(tinyFleet); err != nil {
		t.Errorf("tiny fleet refused: %v", err)
	}
}

// The fleet must keep covering the claim surface: its size, at least one
// fault plan, and a table its golden can key on.
func TestCommittedManifestCoverage(t *testing.T) {
	if len(fleet) < 20 {
		t.Errorf("the fleet has %d scenarios, it promises >= 20", len(fleet))
	}
	if err := checkFleetTable(fleet); err != nil {
		t.Error(err)
	}
	if !slices.ContainsFunc(fleet, func(sc Scenario) bool { return sc.Faults != "" }) {
		t.Error("no scenario carries a fault plan")
	}
}

// Two hand-picked scenarios must engage the partitionings their names
// promise: at the ground-truth quantum every node is loose, and the mixedwan
// geometry mixes a tight rack with loose nodes.
func TestCommittedManifestEngagesFastPaths(t *testing.T) {
	pick := func(name string) cluster.Stats {
		t.Helper()
		for _, sc := range fleet {
			if sc.Name == name {
				r := runFleetScenario(sc)
				if r.err != nil {
					t.Fatalf("%s: %v", name, r.err)
				}
				return r.stats
			}
		}
		t.Fatalf("scenario %q missing from the fleet", name)
		return cluster.Stats{}
	}
	if pick("pingpong-ground-truth").FastFullQuanta == 0 {
		t.Error("pingpong-ground-truth had no fully eligible quantum")
	}
	if pick("uniform-graded-wan").FastPartialQuanta == 0 {
		t.Error("uniform-graded-wan had no partially eligible quantum")
	}
}
