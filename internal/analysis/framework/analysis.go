// Package framework is a small, stdlib-only re-implementation of the core of
// golang.org/x/tools/go/analysis, sufficient to host simlint's analyzers.
//
// The real x/tools module is deliberately not a dependency: the simulator is
// a zero-dependency codebase, and the subset an analyzer actually needs —
// parsed files, type information, a Report callback — is a few hundred lines
// on top of go/ast, go/types and `go list`. The API mirrors x/tools closely
// enough that the analyzers could be ported to the real framework by changing
// imports.
//
// On top of the x/tools shape it adds one simulator-specific facility:
// //simlint:NAME directives (see directives.go), the escape hatch through
// which code asserts that a flagged construct is intentional. A directive
// must carry a one-line justification; a bare directive is itself reported,
// and so is one whose NAME no analyzer of the run declares.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Directives lists every //simlint:NAME this analyzer reads — the
	// categories it passes to Report. RunAnalyzers reports a directive whose
	// name no analyzer of the run lists, so a typo or a leftover of a deleted
	// analyzer cannot linger.
	Directives []string

	// Run applies the analyzer to a single package.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer with the material for one package and
// collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags      []Diagnostic
	directives *DirectiveSet
	// reportedDirectives dedupes the "directive needs a justification"
	// diagnostic when one bare directive suppresses several findings.
	reportedDirectives map[*Directive]bool
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos token.Pos
	// Analyzer is the name of the analyzer that produced the finding
	// ("simlint" for the driver's own unknown-directive report).
	Analyzer string
	Message  string
}

// Report records a finding unless a //simlint:<category> directive on the
// finding's line (or the line above it) suppresses it. A suppressing
// directive with no justification text is itself reported, once.
func (p *Pass) Report(category string, pos token.Pos, format string, args ...any) {
	if d := p.directives.Suppressing(category, p.Fset, pos); d != nil {
		if d.Reason == "" {
			if p.reportedDirectives == nil {
				p.reportedDirectives = map[*Directive]bool{}
			}
			if !p.reportedDirectives[d] {
				p.reportedDirectives[d] = true
				p.diags = append(p.diags, Diagnostic{
					Pos:      d.Pos,
					Analyzer: p.Analyzer.Name,
					Message: fmt.Sprintf("//simlint:%s directive needs a one-line justification "+
						"(write //simlint:%s <why this is safe>)", category, category),
				})
			}
		}
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers applies every analyzer to every package, one package at a
// time, and returns the combined findings ordered by file position, then
// analyzer, then message, so output never depends on map iteration order
// inside the analyzers. The packages share one FileSet, as Load's do.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		for _, name := range a.Directives {
			known[name] = true
		}
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := CollectDirectives(pkg.Fset, pkg.Files)
		out = append(out, unknownDirectives(dirs, known)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				directives: dirs,
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: analyzer %s: %w", pkg.Path, a.Name, err)
			}
			out = append(out, pass.diags...)
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
