package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// FactsOnly marks a package loaded only because a named package depends
	// on it: analyzers run over it to compute cross-package facts, but its
	// diagnostics are discarded.
	FactsOnly bool
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go command, parses every
// matched package, and type-checks it against compiler export data.
//
// Export data comes from `go list -export -deps`, which (re)builds
// dependencies as needed and hands back the compiler's own export files, so
// type checking here is exactly as the compiler sees it and costs no
// source-level re-typechecking of the standard library.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, lp := range pkgs {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		// Dependencies from this module are still analyzed — facts only —
		// so an interprocedural analyzer sees its whole in-module call
		// graph even when the patterns named just one package. Foreign
		// module deps (none today; the repo is zero-dependency) and the
		// standard library stay opaque.
		factsOnly := lp.DepOnly
		if factsOnly && (lp.Module == nil || !lp.Module.Main) {
			continue
		}
		// Golden corpora under testdata/ are analyzer *inputs*, never
		// product code: `go list ./...` skips testdata trees by
		// convention, but explicit directory patterns (or patterns
		// resolved from inside a testdata tree) can still name them, and
		// linting a corpus as product code would report its deliberate
		// findings. Skip them wherever they slipped in.
		if underTestdata(lp.Dir) {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		var paths []string
		for _, gf := range lp.GoFiles {
			paths = append(paths, filepath.Join(lp.Dir, gf))
		}
		pkg, err := checkFiles(fset, imp, lp.ImportPath, paths)
		if err != nil {
			return nil, err
		}
		pkg.FactsOnly = factsOnly
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// underTestdata reports whether dir has a path element named "testdata".
func underTestdata(dir string) bool {
	for _, seg := range strings.Split(filepath.ToSlash(dir), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// CheckSourceDeps parses and type-checks a free-standing set of Go files
// (the analysistest path: testdata trees are invisible to go list, so their
// import sets are discovered from the parsed files and resolved through one
// targeted `go list -export` call). pkgPath becomes the package's import
// path for critical-package matching. The caller owns the FileSet (so
// several corpus packages share one coordinate space), and deps supplies
// already-source-checked packages that imports resolve against before
// falling back to `go list` export data. That lets a testdata package import
// a sibling testdata package — the shape cross-package fact tests require —
// even though neither is visible to the go command.
func CheckSourceDeps(fset *token.FileSet, dir, pkgPath string, filenames []string, deps map[string]*types.Package) (*Package, error) {
	var files []*ast.File
	importSet := map[string]bool{}
	for _, name := range filenames {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err == nil && p != "C" && deps[p] == nil {
				importSet[p] = true
			}
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	exports := map[string]string{}
	if len(imports) > 0 {
		_, exp, err := goList(dir, imports)
		if err != nil {
			return nil, err
		}
		exports = exp
	}
	imp := types.Importer(exportImporter(fset, exports))
	if len(deps) > 0 {
		imp = depsImporter{deps: deps, fallback: imp}
	}
	return typeCheck(fset, imp, pkgPath, files)
}

// depsImporter resolves imports from a map of source-checked packages first,
// then from export data.
type depsImporter struct {
	deps     map[string]*types.Package
	fallback types.Importer
}

func (d depsImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := d.deps[path]; ok {
		return pkg, nil
	}
	return d.fallback.Import(path)
}

// checkFiles parses paths and type-checks them as one package.
func checkFiles(fset *token.FileSet, imp types.Importer, pkgPath string, paths []string) (*Package, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return typeCheck(fset, imp, pkgPath, files)
}

// typeCheck runs go/types over already-parsed files.
func typeCheck(fset *token.FileSet, imp types.Importer, pkgPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", pkgPath, err)
	}
	return &Package{Path: pkgPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// goList shells out to `go list -e -export -deps -json` and returns the
// matched packages plus an importPath→export-file map covering the whole
// dependency graph.
func goList(dir string, patterns []string) ([]*listedPackage, map[string]string, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,DepOnly,Standard,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	exports := map[string]string{}
	var pkgs []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		p := lp
		pkgs = append(pkgs, &p)
	}
	return pkgs, exports, nil
}

// exportImporter returns a types.Importer that reads gc export data files
// named by exports (importPath → file).
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}
