// Command simfleet is the scenario regression fleet: it executes the
// declarative manifest of simulation scenarios in testdata/fleet/, computes
// a canonical fingerprint per scenario (Result/Stats/Quanta plus the prof
// report bytes), and diffs the fingerprints against the committed goldens.
// One command answers "did this PR change any simulated outcome it didn't
// mean to?" — the check the equivalence matrices of earlier PRs hand-rolled
// per change.
//
//	simfleet -manifest testdata/fleet/manifest.json            # check
//	simfleet -manifest testdata/fleet/manifest.json -update    # regenerate goldens
//
// A fingerprint mismatch exits 1 and, with -diff-out, writes a JSON diff
// artifact naming every changed/failed/missing scenario (CI uploads it).
// Intentional simulation changes regenerate goldens with -update and commit
// the diff alongside the change that caused it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"clustersim/internal/experiments"
)

var (
	manifestFlag = flag.String("manifest", "", "fleet manifest JSON (see internal/experiments.ParseManifest)")
	goldenFlag   = flag.String("golden", "", "golden fingerprint file; default golden.json next to the manifest")
	updateFlag   = flag.Bool("update", false, "rewrite the golden file from this run instead of diffing")
	poolFlag     = flag.Int("pool", 0, "scenarios run concurrently on this many goroutines; 0 = GOMAXPROCS")
	diffOutFlag  = flag.String("diff-out", "", "write the JSON fingerprint diff here when the fleet fails")
	verboseFlag  = flag.Bool("v", false, "print one line per finished scenario")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simfleet:", err)
		os.Exit(1)
	}
}

func goldenPath() string {
	if *goldenFlag != "" {
		return *goldenFlag
	}
	return filepath.Join(filepath.Dir(*manifestFlag), "golden.json")
}

func run() error {
	if *manifestFlag == "" {
		return fmt.Errorf("nothing to do: pass -manifest")
	}
	m, err := experiments.LoadManifest(*manifestFlag)
	if err != nil {
		return err
	}
	var progress func(experiments.ScenarioOutcome)
	if *verboseFlag {
		progress = func(o experiments.ScenarioOutcome) {
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "fail %-28s %v\n", o.Name, o.Err)
			} else {
				fmt.Fprintf(os.Stderr, "ran  %-28s %s\n", o.Name, o.Fingerprint[:12])
			}
		}
	}
	outcomes := experiments.RunFleet(m, *poolFlag, progress)

	if *updateFlag {
		g, err := experiments.BuildGolden(outcomes)
		if err != nil {
			return fmt.Errorf("refusing to write goldens: %v", err)
		}
		if err := os.WriteFile(goldenPath(), g.JSON(), 0o644); err != nil {
			return err
		}
		fmt.Printf("fleet: wrote %d fingerprints to %s\n", len(g.Scenarios), goldenPath())
		return nil
	}

	g, err := experiments.LoadGolden(goldenPath())
	if err != nil {
		return fmt.Errorf("%v (run with -update to create the golden file)", err)
	}
	d := experiments.DiffGolden(outcomes, g)
	if d.Empty() {
		fmt.Printf("fleet ok: %d scenarios match %s\n", len(outcomes), goldenPath())
		return nil
	}
	if *diffOutFlag != "" {
		if werr := os.WriteFile(*diffOutFlag, d.JSON(), 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "simfleet: writing diff artifact: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "simfleet: diff artifact written to %s\n", *diffOutFlag)
		}
	}
	if d.EncodingChanged != "" {
		fmt.Fprintf(os.Stderr, "note %s\n", d.EncodingChanged)
	}
	for _, c := range d.Changed {
		fmt.Fprintf(os.Stderr, "changed %-28s want %s got %s\n", c.Name, c.Want[:12], c.Got[:12])
	}
	for _, f := range d.Failed {
		fmt.Fprintf(os.Stderr, "failed  %-28s %s\n", f.Name, f.Reason)
	}
	for _, n := range d.Missing {
		fmt.Fprintf(os.Stderr, "missing %-28s not in golden (run -update)\n", n)
	}
	for _, n := range d.Extra {
		fmt.Fprintf(os.Stderr, "extra   %-28s in golden but not in manifest\n", n)
	}
	return fmt.Errorf("fleet: %d changed, %d failed, %d missing, %d extra (golden %s)",
		len(d.Changed), len(d.Failed), len(d.Missing), len(d.Extra), goldenPath())
}
