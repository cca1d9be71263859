// Package simlint assembles the full analyzer suite that machine-checks the
// simulator's determinism invariants. cmd/simlint is the thin driver around
// it.
package simlint

import (
	"clustersim/internal/analysis/errdiscard"
	"clustersim/internal/analysis/framework"
	"clustersim/internal/analysis/guestwall"
	"clustersim/internal/analysis/hotalloc"
	"clustersim/internal/analysis/maporder"
	"clustersim/internal/analysis/nodetsource"
)

// Analyzers returns the suite in stable order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		nodetsource.Analyzer,
		maporder.Analyzer,
		guestwall.Analyzer,
		hotalloc.Analyzer,
		errdiscard.Analyzer,
	}
}
