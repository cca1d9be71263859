// Package analysistest runs a framework.Analyzer over testdata packages and
// checks its diagnostics against // want comments, mirroring the x/tools
// package of the same name.
//
// Layout follows the x/tools convention: Run(t, TestData(), analyzer, "p")
// analyzes every .go file under testdata/src/p, with "p" (the path relative
// to testdata/src) becoming the package's import path — so a testdata
// directory named clustersim/internal/cluster exercises the
// critical-package matching exactly as the real package would.
//
// Expectations are written as trailing comments:
//
//	t := time.Now() // want `time\.Now reads the wall clock`
//
// Each string after "// want" is a regular expression (Go-quoted or
// backquoted) that must match the message of a diagnostic reported on that
// line; diagnostics without a matching want, and wants without a matching
// diagnostic, both fail the test.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clustersim/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run analyzes the named packages under dir/src — together, over a shared
// FileSet — and compares diagnostics with // want expectations across all of
// them.
func Run(t *testing.T, dir string, a *framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []*framework.Package
	wants := &wantSet{byLine: map[posKey][]*want{}}
	for _, pkgPath := range pkgPaths {
		pkgDir := filepath.Join(dir, "src", filepath.FromSlash(pkgPath))
		entries, err := os.ReadDir(pkgDir)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		var names []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			t.Fatalf("%s: no .go files in %s", pkgPath, pkgDir)
		}
		pkg, err := framework.CheckSource(fset, pkgDir, pkgPath, names)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		pkgs = append(pkgs, pkg)
		if err := collectWants(wants, pkgDir, names); err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
	}
	diags, err := framework.RunAnalyzers(pkgs, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := posKey{pos.Filename, pos.Line}
		if !wants.match(key, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", key.file, key.line, d.Message)
		}
	}
	for key, ws := range wants.byLine {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re.String())
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	byLine map[posKey][]*want
}

// match consumes at most one unmatched want on key whose regexp matches msg.
func (ws *wantSet) match(key posKey, msg string) bool {
	for _, w := range ws.byLine[key] {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// collectWants scans source lines for // want expectations, keying them by
// the same full filename the FileSet will report.
func collectWants(ws *wantSet, dir string, names []string) error {
	for _, name := range names {
		full := filepath.Join(dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			exprs, err := parseWantExprs(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: %v", name, i+1, err)
			}
			key := posKey{full, i + 1}
			for _, e := range exprs {
				re, err := regexp.Compile(e)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp: %v", name, i+1, err)
				}
				ws.byLine[key] = append(ws.byLine[key], &want{re: re})
			}
		}
	}
	return nil
}

// parseWantExprs splits the text after "// want" into quoted or backquoted
// regular expressions.
func parseWantExprs(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated want string %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want string %q: %v", s[:end+1], err)
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want raw string %q", s)
			}
			out = append(out, s[1:end+1])
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want expressions must be quoted or backquoted, got %q", s)
		}
	}
	return out, nil
}
