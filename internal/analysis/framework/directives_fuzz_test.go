package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzParseDirective hammers the //simlint: comment grammar: malformed
// categories, missing justifications, embedded // markers, control bytes.
// parseDirective must never panic and its output must keep the invariants
// Suppressing, the bare-directive report and the unknown-directive report
// rely on.
func FuzzParseDirective(f *testing.F) {
	seeds := []string{
		"//simlint:maporder per-key merge, order cannot leak",
		"//simlint:maporder",                 // bare: suppresses but is itself reported
		"//simlint:",                         // no category: not a directive
		"//simlint: justification only",      // space before category: not a directive
		"//simlint:a//b",                     // nested // cuts the justification
		"//simlint:hotalloc why // want `x`", // analysistest marker stripped
		"// simlint:maporder nope",           // space after //: not a directive
		"//simlint:wallclock\treason",        // tab is not the name/reason separator
		"//simlint:one x //simlint:two y",    // second directive lost to the // cut
		"//simlint:guestwall   padded reason   ",
		"//simlint:名前 理由",  // non-ASCII category and reason
		"//simlint:a\x00b", // control byte in the category
		"plain text",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d := parseDirective(&ast.Comment{Text: text})

		if d == nil {
			// nil only when the prefix is absent or the category is empty.
			if strings.HasPrefix(text, directivePrefix) {
				rest := strings.TrimPrefix(text, directivePrefix)
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				name, _, _ := strings.Cut(rest, " ")
				if strings.TrimSpace(name) != "" {
					t.Fatalf("parseDirective(%q) = nil for a well-prefixed nonempty category", text)
				}
			}
			return
		}

		if !strings.HasPrefix(text, directivePrefix) {
			t.Fatalf("parseDirective(%q) parsed a directive without the %s prefix", text, directivePrefix)
		}
		if d.Name == "" {
			t.Fatalf("parseDirective(%q) returned an empty category", text)
		}
		if d.Name != strings.TrimSpace(d.Name) || d.Reason != strings.TrimSpace(d.Reason) {
			t.Fatalf("parseDirective(%q) = {%q, %q}: fields not trimmed", text, d.Name, d.Reason)
		}
		if strings.Contains(d.Name, "//") || strings.Contains(d.Reason, "//") {
			t.Fatalf("parseDirective(%q) = {%q, %q}: nested // must cut the directive", text, d.Name, d.Reason)
		}
		if strings.Contains(d.Name, " ") {
			t.Fatalf("parseDirective(%q): category %q contains a space", text, d.Name)
		}

		// End-to-end through real source: a trailing comment on a statement
		// line must be collected and must suppress its own category there.
		if strings.ContainsAny(text, "\n\r") {
			return
		}
		src := "package p\n\nvar x int " + text + "\n"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments)
		if err != nil {
			return // the comment text does not survive re-parsing; fine
		}
		ds := CollectDirectives(fset, []*ast.File{file})
		varPos := file.Decls[len(file.Decls)-1].Pos()
		got := ds.Suppressing(d.Name, fset, varPos)
		if got == nil {
			t.Fatalf("directive %q not found suppressing %q on its own line", text, d.Name)
		}
		if got.Name != d.Name || got.Reason != d.Reason {
			t.Fatalf("collected directive {%q, %q} != parsed {%q, %q}", got.Name, got.Reason, d.Name, d.Reason)
		}
		if ds.Suppressing("not-"+d.Name, fset, varPos) != nil {
			t.Fatalf("directive %q suppressed a different category", text)
		}

		// The unknown-directive check: silent when an analyzer declares the
		// name, one report at the directive naming it when none does.
		if got := unknownDirectives(ds, map[string]bool{d.Name: true}); len(got) != 0 {
			t.Fatalf("directive %q reported as unknown though its name is declared: %v", text, got)
		}
		unknown := unknownDirectives(ds, map[string]bool{"not-" + d.Name: true})
		if len(unknown) != 1 || unknown[0].Pos != got.Pos ||
			!strings.Contains(unknown[0].Message, "//simlint:"+d.Name+":") {
			t.Fatalf("directive %q with an undeclared name: got %v, want one report at the directive", text, unknown)
		}
	})
}
