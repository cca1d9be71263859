// Simlint is the simulator's determinism linter: one driver over the custom
// analyzers in internal/analysis (nodetsource, maporder, guestwall, hotalloc,
// errdiscard). Lock copies are `go vet`'s copylocks check, and shared
// counters are sync/atomic's typed values, so neither needs an analyzer
// here.
//
// Use, from the module root:
//
//	go run ./cmd/simlint ./...
//
// Findings go to stderr as file:line:col: [analyzer] message.
// Exit status: 0 clean, 1 operational error, 2 findings — matching go vet.
package main

import (
	"flag"
	"fmt"
	"os"

	"clustersim/internal/analysis/framework"
	"clustersim/internal/analysis/simlint"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	dirFlag := fs.String("C", ".", "change to this directory before resolving patterns")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 1
	}
	pkgs, err := framework.Load(*dirFlag, fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	diags, err := framework.RunAnalyzers(pkgs, simlint.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	// Load hands every package the same FileSet.
	fset := pkgs[0].Fset
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	return 2
}
