package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

import "time"

func a() {
	_ = time.Now() //simlint:wallclock trailing form with a reason
}

func b() {
	//simlint:maporder standalone form: suppresses the next line
	_ = time.Now()
}

func c() {
	_ = time.Now() //simlint:wallclock
}

func d() {
	_ = time.Now() //simlint:wallclock reason text // want "nested marker is cut"
}

func e() {
	// not a directive: simlint:wallclock must start the comment
	_ = time.Now()
}
`

func parseDirectives(t *testing.T) (*token.FileSet, *DirectiveSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, CollectDirectives(fset, []*ast.File{f})
}

func TestParseDirectives(t *testing.T) {
	_, set := parseDirectives(t)
	all := set.all
	if len(all) != 4 {
		t.Fatalf("got %d directives, want 4: %+v", len(all), all)
	}
	want := []struct {
		name, reason string
		line         int
	}{
		{"wallclock", "trailing form with a reason", 6},
		{"maporder", "standalone form: suppresses the next line", 10},
		{"wallclock", "", 15},
		{"wallclock", "reason text", 19},
	}
	for i, w := range want {
		d := all[i]
		if d.Name != w.name || d.Reason != w.reason || d.Line != w.line {
			t.Errorf("directive %d = {%q %q line %d}, want {%q %q line %d}",
				i, d.Name, d.Reason, d.Line, w.name, w.reason, w.line)
		}
	}
}

func TestSuppressing(t *testing.T) {
	fset, set := parseDirectives(t)
	posOnLine := func(line int) token.Pos {
		tf := fset.File(set.all[0].Pos)
		return tf.LineStart(line)
	}

	cases := []struct {
		category string
		line     int
		want     bool
	}{
		{"wallclock", 6, true},   // same line, trailing form
		{"wallclock", 7, true},   // line below a trailing directive is also covered
		{"maporder", 11, true},   // line below a standalone directive
		{"maporder", 10, true},   // the directive's own line
		{"maporder", 12, false},  // two lines below: out of range
		{"wallclock", 11, false}, // wrong category
		{"guestwall", 6, false},  // wrong category
		{"wallclock", 24, false}, // comment not starting with //simlint: is ignored
	}
	for _, c := range cases {
		got := set.Suppressing(c.category, fset, posOnLine(c.line))
		if (got != nil) != c.want {
			t.Errorf("Suppressing(%q, line %d) = %v, want match=%v", c.category, c.line, got, c.want)
		}
	}

	if set.Suppressing("wallclock", fset, token.NoPos) != nil {
		t.Error("Suppressing with NoPos should return nil")
	}
	var nilSet *DirectiveSet
	if nilSet.Suppressing("wallclock", fset, posOnLine(6)) != nil {
		t.Error("Suppressing on nil set should return nil")
	}
}
