// Package errdiscard defines the simlint analyzer that closes the
// silently-dropped-error gap in determinism-critical and export packages:
// calls to Flush/Err/Validate-shaped APIs whose error result is discarded.
//
// The shape, not the package, is what marks these APIs load-bearing: a
// method named Flush, Err or Validate whose last result is error exists
// precisely to surface a deferred failure (buffered-writer flush, iterator
// terminal error, config validation). Discarding that error is how
// ErrDeliveryFailed went unchecked until the PR 9 horizon fix — the delivery
// error was produced, shaped exactly like this, and dropped on the floor.
//
// Flagged discard forms:
//
//   - the call as a bare statement:        w.Flush()
//   - under go or defer:                   defer w.Flush()
//   - the error position assigned to _:    _ = w.Flush()
//     (including its slot in a multi-assign: v, _ := p.Validate())
//
// Scope is critpkg.Export — the deterministic core plus the command mains
// whose output assembly the repeatability claim extends to. Justification is
// //simlint:errdiscard <why> on the call line (or above); "the deferred
// Flush error is re-checked by the explicit Flush below" is the classic
// legitimate case.
package errdiscard

import (
	"go/ast"
	"go/types"

	"clustersim/internal/analysis/critpkg"
	"clustersim/internal/analysis/framework"
)

// Analyzer flags discarded errors from Flush/Err/Validate-shaped calls.
var Analyzer = &framework.Analyzer{
	Name: "errdiscard",
	Doc: "flag discarded error results of Flush/Err/Validate-shaped calls in " +
		"determinism-critical and export packages (critpkg.Export scope)",
	Directives: []string{"errdiscard"},
	Run:        run,
}

// shapedNames are the method/function names whose error result is a
// deferred failure by convention.
var shapedNames = map[string]bool{
	"Flush":    true,
	"Err":      true,
	"Validate": true,
}

var errorType = types.Universe.Lookup("error").Type()

func run(pass *framework.Pass) (any, error) {
	if !critpkg.Export(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					report(pass, call, "is dropped")
				}
			case *ast.GoStmt:
				report(pass, n.Call, "is dropped (goroutine result)")
			case *ast.DeferStmt:
				report(pass, n.Call, "is dropped (deferred call result)")
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				// The shaped error is the last result; flag iff its slot
				// (the last LHS) is the blank identifier.
				if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					report(pass, call, "is assigned to _")
				}
			}
			return true
		})
	}
	return nil, nil
}

// report flags call if it is Flush/Err/Validate-shaped.
func report(pass *framework.Pass, call *ast.CallExpr, how string) {
	name, ok := shaped(pass, call)
	if !ok {
		return
	}
	pass.Report("errdiscard", call.Pos(),
		"error returned by %s %s; these APIs exist to surface deferred failures — "+
			"handle the error or annotate //simlint:errdiscard <why>",
		name, how)
}

// shaped reports whether call targets a function named Flush, Err or
// Validate whose last result is error, returning a display name. Interface
// methods count: the shape is the contract, concrete or not.
func shaped(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || !shapedNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 || !types.Identical(res.At(res.Len()-1).Type(), errorType) {
		return "", false
	}
	return displayName(fn), true
}

// displayName renders pkg.Func or (Recv).Method with bare package names.
func displayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := types.TypeString(sig.Recv().Type(), func(p *types.Package) string { return p.Name() })
		return "(" + recv + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
