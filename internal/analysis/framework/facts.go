package framework

// A factStore carries analyzer facts across package boundaries: values a
// Pass exports while analyzing one package and a later Pass of the same
// analyzer imports while analyzing a package that depends on it. This is
// the stdlib-only analogue of x/tools' fact mechanism, and the substrate of
// simlint's one interprocedural analyzer — hotalloc's per-function
// allocation summaries flow dependency→dependent through it, so an analyzer
// looking at the engine's quantum loop can name allocation sites buried
// three packages down the call graph.
//
// Facts only ever flow in import order (Go forbids import cycles), which is
// why RunAnalyzers processes packages in dependency order. The store lives
// for one RunAnalyzers call and is never serialized.
type factStore map[factKey]any

// A factKey namespaces one fact by exporting package, analyzer and key.
type factKey struct{ pkgPath, analyzer, key string }

// ExportFact records v under (this package, this analyzer, key) for passes
// analyzing downstream packages to import.
func (p *Pass) ExportFact(key string, v any) {
	p.facts[factKey{p.Pkg.Path(), p.Analyzer.Name, key}] = v
}

// ImportFact returns the fact this analyzer exported for another package
// under key, or nil. A fact is visible iff its package was analyzed earlier
// in the dependency order.
func (p *Pass) ImportFact(pkgPath, key string) any {
	return p.facts[factKey{pkgPath, p.Analyzer.Name, key}]
}
