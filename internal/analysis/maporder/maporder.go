// Package maporder defines a simlint analyzer that flags iteration over
// maps in packages whose output must be byte-stable across runs.
//
// Go randomizes map iteration order per range statement, so any map range
// whose per-iteration effect is order-sensitive — appending to a slice that
// is never sorted, building a string, accumulating floats, returning the
// first element that satisfies a predicate — silently injects run-to-run
// nondeterminism into results, traces, frame routes and hashes.
//
// Two loop shapes are recognized as order-insensitive and allowed without
// annotation:
//
//   - merge-only bodies: every statement stores through a map index (or
//     deletes a map key), so the final map content is independent of
//     visit order, e.g. `for k, v := range src { dst[k] = v }`;
//   - collect-then-sort: the body only appends to one slice and the
//     statement immediately following the loop sorts that same slice
//     (sort.Strings/Ints/Slice/... or slices.Sort*), the canonical
//     "sort the keys first" idiom;
//   - `for range m` with neither key nor value bound: the body cannot
//     observe order, only cardinality.
//
// Everything else needs either a rewrite or //simlint:maporder <why>.
package maporder

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"clustersim/internal/analysis/critpkg"
	"clustersim/internal/analysis/framework"
)

// Analyzer flags nondeterministically-ordered map iteration.
var Analyzer = &framework.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map in result/trace/export paths unless the loop is " +
		"order-insensitive (merge-only or collect-then-sort) or annotated //simlint:maporder",
	Directives: []string{"maporder"},
	Run:        run,
}

func run(pass *framework.Pass) (any, error) {
	if !critpkg.Export(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			list := stmtList(n)
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapRange(pass, rs) {
					continue
				}
				var next ast.Stmt
				if i+1 < len(list) {
					next = list[i+1]
				}
				if rangeIsOrderInsensitive(pass, rs, next) {
					continue
				}
				pass.Report("maporder", rs.For,
					"range over map %s has nondeterministic iteration order; "+
						"collect and sort the keys first, or annotate //simlint:maporder <why>",
					render(pass.Fset, rs.X))
			}
			return true
		})
	}
	return nil, nil
}

// stmtList returns the statement list held by n, if any. Working on lists
// (rather than visiting RangeStmt directly) lets the collect-then-sort check
// see the statement that follows the loop.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// isMapRange reports whether rs ranges over a value of map type.
func isMapRange(pass *framework.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rangeIsOrderInsensitive reports whether the loop is one of the recognized
// safe shapes.
func rangeIsOrderInsensitive(pass *framework.Pass, rs *ast.RangeStmt, next ast.Stmt) bool {
	if rs.Key == nil && rs.Value == nil {
		return true // order is unobservable; only the iteration count matters
	}
	if mergeOnlyBody(pass, rs.Body) {
		return true
	}
	if target := collectOnlyBody(pass, rs.Body); target != nil && sortsSlice(pass, next, target) {
		return true
	}
	return false
}

// mergeOnlyBody reports whether every statement in body stores through a map
// index or deletes a map key — shapes whose cumulative effect cannot depend
// on iteration order (each key is written at most per-iteration, and
// distinct iterations touch the map pointwise).
func mergeOnlyBody(pass *framework.Pass, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN {
				return false // +=/-= into a shared cell is order-sensitive for floats/strings
			}
			for _, lhs := range s.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					return false
				}
				t := pass.TypesInfo.TypeOf(ix.X)
				if t == nil {
					return false
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return false
				}
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "delete") {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// collectOnlyBody reports whether every statement in body is an append onto
// the same slice variable (`s = append(s, ...)`), returning that variable's
// object, or nil.
func collectOnlyBody(pass *framework.Pass, body *ast.BlockStmt) types.Object {
	if len(body.List) == 0 {
		return nil
	}
	var target types.Object
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return nil
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return nil
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
			return nil
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return nil
		}
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil || pass.TypesInfo.Uses[first] != obj {
			return nil
		}
		if target == nil {
			target = obj
		} else if target != obj {
			return nil
		}
	}
	return target
}

// sortFuncs are the qualified names accepted as a canonical sort of the
// collected keys.
var sortFuncs = map[string]bool{
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// sortsSlice reports whether stmt is a recognized sort call whose first
// argument is the collected slice (or, for sort.Sort/Stable, wraps it).
func sortsSlice(pass *framework.Pass, stmt ast.Stmt, target types.Object) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if !sortFuncs[obj.Pkg().Name()+"."+obj.Name()] {
		return false
	}
	// Accept the slice appearing anywhere in the first argument (covers both
	// sort.Strings(keys) and sort.Sort(byName(keys))).
	found := false
	ast.Inspect(call.Args[0], func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == target {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltin reports whether fun denotes the named builtin.
func isBuiltin(pass *framework.Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// render formats an expression compactly for a diagnostic.
func render(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil || b.Len() == 0 || b.Len() > 60 {
		return "value"
	}
	return b.String()
}
