// Package hotalloc defines the simlint analyzer that turns the runtime
// 0-allocs/quantum CI gate into compile-time attribution: it statically
// flags allocation sites in any function reachable from a declared hot
// path, and names the call path when the allocation hides in another
// package.
//
// A hot path is a function marked //simlint:hotpath (on the declaration or
// its last doc line) — the engine's quantum loops. From each marked root
// the analyzer walks the package's static call graph; in every reachable
// function it flags the constructs that can allocate:
//
//   - make and new
//   - append (growth beyond capacity allocates; amortized-zero appends into
//     pre-grown slices are exactly what the justification records)
//   - composite literals that allocate: &T{…}, slice and map literals
//     (plain value struct literals are stack noise and stay silent)
//   - function literals (a capturing closure that escapes allocates)
//   - interface boxing at call sites and conversions (a concrete value
//     passed to an interface parameter is heap-boxed when it escapes)
//
// Arguments of panic calls are exempt: a panicking path has left the hot
// loop by definition.
//
// Cross-package reachability inverts the walk: for EVERY function of every
// analyzed package the analyzer computes a transitive allocation summary
// (its own unjustified sites plus those of its static callees, callees in
// other packages resolved through previously exported facts) and exports it
// under the function's FuncKey. A hot function calling into another package
// then reports at the call site, naming the buried sites — so the engine's
// quantum loop learns that a guest call allocates three packages down
// without simlint ever guessing at dynamic dispatch.
//
// Justification is //simlint:hotalloc <why> on the flagged line (or above).
// A justified site is also excluded from exported summaries, so annotating
// an allocation at its defining site (e.g. a slab refill that amortizes to
// zero) stops it from re-surfacing at every upstream call site.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"clustersim/internal/analysis/framework"
)

// Analyzer flags allocation sites reachable from //simlint:hotpath roots.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation sites (make/new/append/reference literals/closures/" +
		"interface boxing) in functions reachable from //simlint:hotpath roots, " +
		"following calls across packages via exported allocation summaries",
	Directives: []string{"hotpath", "hotalloc"},
	Run:        run,
}

// summary is the exported per-function fact: the distinct unjustified
// allocation sites a call to the function can reach.
type summary struct {
	// Sites lists up to maxSites rendered sites, sorted.
	Sites []string
	// Total counts the distinct sites found (Total > len(Sites) when the
	// list was capped).
	Total int
}

const (
	// maxSites caps the per-function site list carried in facts.
	maxSites = 4
	// maxShown caps the sites quoted in one diagnostic message.
	maxShown = 3
)

// an allocSite is one allocation construct in a function body.
type allocSite struct {
	pos  token.Pos
	what string // e.g. "append", "make", "&composite literal"
	// justified sites stay reportable (Report handles the suppression) but
	// are excluded from exported summaries.
	justified bool
}

func run(pass *framework.Pass) (any, error) {
	graph := framework.BuildCallGraph(pass.Files, pass.TypesInfo)
	dirs := pass.Directives()

	// Pass 1: local allocation sites per function.
	sites := map[*framework.CallNode][]allocSite{}
	for _, node := range graph.Nodes {
		found := findAllocs(pass, node.Decl.Body)
		for i := range found {
			found[i].justified = dirs.Suppressing("hotalloc", pass.Fset, found[i].pos) != nil
		}
		sites[node] = found
	}

	// Pass 2: bottom-up transitive summaries, exported for downstream
	// packages. Cycles through recursion settle to the sites found so far.
	memo := map[*framework.CallNode]map[string]bool{}
	onStack := map[*framework.CallNode]bool{}
	var transitive func(n *framework.CallNode) map[string]bool
	transitive = func(n *framework.CallNode) map[string]bool {
		if got, ok := memo[n]; ok {
			return got
		}
		if onStack[n] {
			return nil
		}
		onStack[n] = true
		set := map[string]bool{}
		for _, s := range sites[n] {
			if !s.justified {
				set[renderSite(pass, n, s)] = true
			}
		}
		for _, call := range n.Calls {
			if call.Callee == nil {
				continue
			}
			if local := graph.NodeOf(call.Callee); local != nil {
				for site := range transitive(local) {
					set[site] = true
				}
				continue
			}
			sum, _ := pass.ImportFact(calleePkgPath(call.Callee), framework.FuncKey(call.Callee)).(summary)
			for _, site := range sum.Sites {
				set[site] = true
			}
		}
		delete(onStack, n)
		memo[n] = set
		return set
	}
	for _, node := range graph.Nodes {
		set := transitive(node)
		if len(set) == 0 {
			continue
		}
		rendered := make([]string, 0, len(set))
		for site := range set {
			rendered = append(rendered, site)
		}
		sort.Strings(rendered)
		sum := summary{Sites: rendered, Total: len(rendered)}
		if len(sum.Sites) > maxSites {
			sum.Sites = sum.Sites[:maxSites]
		}
		pass.ExportFact(framework.FuncKey(node.Fn), sum)
	}

	// Pass 3: report inside functions reachable from hot roots — local
	// sites at their own position, foreign allocating calls at the call
	// site with the buried sites named.
	var roots []*framework.CallNode
	for _, node := range graph.Nodes {
		if dirs.Suppressing("hotpath", pass.Fset, node.Decl.Pos()) != nil {
			roots = append(roots, node)
		}
	}
	for _, r := range graph.Reachable(roots...) {
		rootName := shortFuncName(r.Root.Fn)
		for _, s := range sites[r.Node] {
			pass.Report("hotalloc", s.pos,
				"%s in hot path (reachable from %s); make it amortized-zero and "+
					"annotate //simlint:hotalloc <why>, or move it off the quantum loop",
				s.what, rootName)
		}
		for _, call := range r.Node.Calls {
			if call.Callee == nil || graph.NodeOf(call.Callee) != nil {
				continue
			}
			sum, _ := pass.ImportFact(calleePkgPath(call.Callee), framework.FuncKey(call.Callee)).(summary)
			if sum.Total == 0 {
				continue
			}
			shown := sum.Sites
			if len(shown) > maxShown {
				shown = shown[:maxShown]
			}
			more := ""
			if sum.Total > len(shown) {
				more = fmt.Sprintf(" (+%d more)", sum.Total-len(shown))
			}
			pass.Report("hotalloc", call.Pos,
				"call to %s in hot path (reachable from %s) allocates: %s%s; "+
					"justify the defining sites or annotate //simlint:hotalloc <why> here",
				shortFuncName(call.Callee), rootName, strings.Join(shown, "; "), more)
		}
	}
	return nil, nil
}

// calleePkgPath returns the package path of a resolved callee ("" for
// functions without a package).
func calleePkgPath(fn *types.Func) string {
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Path()
	}
	return ""
}

// findAllocs collects the allocation sites in one function body, skipping
// the arguments of panic calls (cold by construction). Function literals
// are both sites themselves and scanned inside: a closure invoked on the
// hot path allocates on the hot path.
func findAllocs(pass *framework.Pass, body *ast.BlockStmt) []allocSite {
	var out []allocSite
	add := func(pos token.Pos, what string) {
		out = append(out, allocSite{pos: pos, what: what})
	}
	// addressed marks composite literals already attributed to an enclosing
	// &T{…} so they are not double-counted as value literals.
	addressed := map[*ast.CompositeLit]bool{}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isPanic(pass, n) {
					return false // a panicking path is off the hot loop
				}
				switch builtinName(pass, n) {
				case "make":
					add(n.Pos(), fmt.Sprintf("make(%s)", typeOfExpr(pass, n)))
				case "new":
					add(n.Pos(), fmt.Sprintf("new → %s", typeOfExpr(pass, n)))
				case "append":
					add(n.Pos(), "append (may grow)")
				case "":
					if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
						if box := boxedConversion(pass, n); box != "" {
							add(n.Pos(), box)
						}
						return true
					}
					for _, box := range boxedArgs(pass, n) {
						add(n.Pos(), box)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						addressed[cl] = true
						add(n.Pos(), fmt.Sprintf("&%s{…} escapes to the heap when shared", typeOfExpr(pass, cl)))
					}
				}
			case *ast.CompositeLit:
				if addressed[n] {
					return true
				}
				switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), fmt.Sprintf("slice literal %s", typeOfExpr(pass, n)))
				case *types.Map:
					add(n.Pos(), fmt.Sprintf("map literal %s", typeOfExpr(pass, n)))
				}
			case *ast.FuncLit:
				add(n.Pos(), "function literal (allocates a closure if it captures and escapes)")
			}
			return true
		})
	}
	walk(body)
	return out
}

// isPanic reports whether call invokes the panic builtin.
func isPanic(pass *framework.Pass, call *ast.CallExpr) bool {
	return builtinName(pass, call) == "panic"
}

// builtinName returns the name of the builtin call invokes, or "".
func builtinName(pass *framework.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// boxedConversion describes an explicit conversion of a concrete value to
// an interface type, or "".
func boxedConversion(pass *framework.Pass, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	to := pass.TypesInfo.TypeOf(call.Fun)
	from := pass.TypesInfo.TypeOf(call.Args[0])
	if boxes(from, to) {
		return fmt.Sprintf("interface boxing: %s converted to %s", typeString(from), typeString(to))
	}
	return ""
}

// boxedArgs describes every argument of call that is boxed into an
// interface parameter (variadic interface parameters included — the fmt
// shape, which also allocates the variadic slice).
func boxedArgs(pass *framework.Pass, call *ast.CallExpr) []string {
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return nil // not a call, or a spread slice passed through unboxed
	}
	var out []string
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if boxes(at, pt) {
			out = append(out, fmt.Sprintf("interface boxing: %s argument boxed into %s parameter",
				typeString(at), typeString(pt)))
		}
	}
	return out
}

// boxes reports whether assigning a `from` value to a `to` location boxes a
// concrete value into an interface. Untyped nil never boxes.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if basic, ok := from.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return false
	}
	return types.IsInterface(to) && !types.IsInterface(from)
}

// renderSite renders one allocation site for fact summaries and cross-
// package diagnostics: function, file:line, construct.
func renderSite(pass *framework.Pass, n *framework.CallNode, s allocSite) string {
	pos := pass.Fset.Position(s.pos)
	return fmt.Sprintf("%s (%s:%d): %s", shortFuncName(n.Fn), filepath.Base(pos.Filename), pos.Line, s.what)
}

// shortFuncName renders pkg.Func or pkg.(Recv).Method with bare package
// names, matching how humans name these functions in review.
func shortFuncName(fn *types.Func) string {
	fn = fn.Origin()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", typeString(sig.Recv().Type()), name)
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// typeOfExpr renders the type of e compactly.
func typeOfExpr(pass *framework.Pass, e ast.Expr) string {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return "?"
	}
	return typeString(t)
}

// typeString renders a type compactly with package-name qualifiers.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
