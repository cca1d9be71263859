// Package guestwall defines a simlint analyzer that flags conversions
// mixing guest/simulated-time quantities (clustersim/internal/simtime types)
// with wall-clock quantities (package time types).
//
// The two domains are both int64 nanosecond counts, so a conversion between
// them always type-checks and usually even produces plausible numbers —
// which is exactly why the unit-confusion bug class is dangerous: feeding a
// wall-clock measurement into Algorithm 1's inc/dec quantum dynamics (or a
// guest duration into a real sleep/spin) silently corrupts the adaptive
// policy rather than crashing.
//
// The analyzer reports any type conversion whose destination is in one
// domain while the converted expression contains a value from the other,
// including through intermediate int64/float64 laundering inside the same
// expression:
//
//	time.Duration(g)                      // g simtime.Guest      → flagged
//	simtime.Host(time.Since(t0).Nanoseconds()) //                 → flagged
//	time.Duration(float64(d) * scale)     // d simtime.Duration   → flagged
//	simtime.Duration(op.NS)               // op.NS plain int64    → fine
//
// The deliberate bridges — the real-time parallel runner anchoring host
// time to the wall, and its spin() busy-loop — carry
// //simlint:guestwall <why> annotations.
package guestwall

import (
	"go/ast"
	"go/types"

	"clustersim/internal/analysis/framework"
)

// Analyzer flags guest-time ↔ wall-clock unit-confusion conversions.
var Analyzer = &framework.Analyzer{
	Name: "guestwall",
	Doc: "flag conversions mixing simtime (guest/host simulated time) with " +
		"package time (wall clock) quantities (escape: //simlint:guestwall)",
	Directives: []string{"guestwall"},
	Run:        run,
}

// domain classifies a type as simulated-time, wall-clock, or neither.
type domain int

const (
	domNone domain = iota
	domSim
	domWall
)

func (d domain) String() string {
	switch d {
	case domSim:
		return "simulated time (simtime)"
	case domWall:
		return "wall-clock time (package time)"
	}
	return "none"
}

func run(pass *framework.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := typeDomain(tv.Type)
			if dst == domNone {
				return true
			}
			src := exprDomain(pass, call.Args[0])
			if src == domNone || src == dst {
				return true
			}
			pass.Report("guestwall", call.Pos(),
				"conversion to %s from an expression carrying %s mixes clock domains; "+
					"convert through an explicit unit bridge, or annotate //simlint:guestwall <why>",
				typeString(tv.Type), src)
			return true
		})
	}
	return nil, nil
}

// typeDomain classifies a single type.
func typeDomain(t types.Type) domain {
	named, ok := t.(*types.Named)
	if !ok {
		return domNone
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return domNone
	}
	switch obj.Pkg().Path() {
	case "time":
		return domWall
	case "clustersim/internal/simtime":
		return domSim
	}
	return domNone
}

// exprDomain scans every sub-expression of e and reports which clock domain
// values appear in it (domNone if none, or the single domain found; a mixed
// subtree reports domSim — the conversion around it will already have been
// or will be flagged at the inner conversion).
func exprDomain(pass *framework.Pass, e ast.Expr) domain {
	found := domNone
	ast.Inspect(e, func(n ast.Node) bool {
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[ex]
		if !ok {
			return true
		}
		// A nested conversion re-tags its operand; classify by the result
		// type and still descend (the operand's own domain matters too:
		// time.Duration(simtimeVal) inside a larger expression must not
		// hide the simtime origin).
		if d := typeDomain(tv.Type); d != domNone {
			if found == domNone {
				found = d
			}
		}
		return true
	})
	return found
}

// typeString renders a type compactly with package-name qualifiers.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
