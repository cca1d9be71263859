package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Directive is one //simlint:NAME [justification] comment.
//
// A directive suppresses findings of category NAME on its own line (trailing
// form) and on the line immediately below it (standalone form):
//
//	r.startWall = time.Now() //simlint:wallclock real-time runner anchor
//
//	//simlint:maporder per-key merge into another map, order cannot leak
//	for k, v := range src { dst[k] = v }
//
// The justification is mandatory: a bare //simlint:NAME still suppresses the
// underlying finding but is reported itself, so annotations cannot silently
// accumulate without recorded reasons. A NAME that no analyzer of the run
// reads (Analyzer.Directives) is reported too: a typo suppresses nothing, and
// the annotations of a deleted analyzer describe a check nobody makes.
type Directive struct {
	Name   string
	Reason string
	Pos    token.Pos
	// File and Line locate the directive comment itself.
	File string
	Line int
}

// DirectiveSet indexes a package's directives by (file, line).
type DirectiveSet struct {
	byLine map[string]map[int][]*Directive
	all    []*Directive
}

// directivePrefix is the comment marker shared by all simlint directives.
const directivePrefix = "//simlint:"

// CollectDirectives parses every //simlint: comment in files.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *DirectiveSet {
	s := &DirectiveSet{byLine: map[string]map[int][]*Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseDirective(c)
				if d == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				d.Pos = c.Pos()
				d.File = pos.Filename
				d.Line = pos.Line
				if s.byLine[d.File] == nil {
					s.byLine[d.File] = map[int][]*Directive{}
				}
				s.byLine[d.File][d.Line] = append(s.byLine[d.File][d.Line], d)
				s.all = append(s.all, d)
			}
		}
	}
	return s
}

// parseDirective returns the directive carried by c, or nil.
func parseDirective(c *ast.Comment) *Directive {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return nil
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	// A later "// want" marker (analysistest expectation) or any other
	// nested // comment text is not part of the justification.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	name, reason, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return nil
	}
	return &Directive{Name: name, Reason: strings.TrimSpace(reason)}
}

// Suppressing returns the directive that suppresses a finding of the given
// category at pos: a //simlint:<category> on the same line or the line above.
func (s *DirectiveSet) Suppressing(category string, fset *token.FileSet, pos token.Pos) *Directive {
	if s == nil || !pos.IsValid() {
		return nil
	}
	p := fset.Position(pos)
	lines := s.byLine[p.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Name == category {
				return d
			}
		}
	}
	return nil
}

// All returns every directive in the set, in source order per file.
func (s *DirectiveSet) All() []*Directive { return s.all }

// unknownDirectives reports, once each and at the directive, every directive
// of s whose name is not in known.
func unknownDirectives(s *DirectiveSet, known map[string]bool) []Diagnostic {
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Diagnostic
	for _, d := range s.all {
		if known[d.Name] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      d.Pos,
			Analyzer: "simlint",
			Message: fmt.Sprintf("unknown directive //simlint:%s: no analyzer reads it (known: %s)",
				d.Name, strings.Join(names, ", ")),
		})
	}
	return out
}
