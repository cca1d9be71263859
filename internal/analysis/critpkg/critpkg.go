// Package critpkg centralizes simlint's notion of which packages are
// determinism-critical: the packages whose behaviour must be a pure function
// of (workload, config, seed) for the paper's Q ≤ T ground-truth claim — and
// every determinism test built on it — to hold.
package critpkg

import "strings"

// exempt lists module-internal package path segments that are allowed
// nondeterministic inputs:
//
//   - rng IS the sanctioned randomness source; it has no forbidden inputs
//     itself.
//   - analysis is the lint tooling; it talks to the go command and the
//     filesystem by design.
var exempt = map[string]bool{
	"rng":      true,
	"analysis": true,
}

const module = "clustersim"

// inModule reports whether path names a package of this module, and returns
// its segments past the module root.
func inModule(path string) ([]string, bool) {
	if path == module {
		return nil, true
	}
	if rest, ok := strings.CutPrefix(path, module+"/"); ok {
		return strings.Split(rest, "/"), true
	}
	return nil, false
}

// Deterministic reports whether the package at path must be free of hidden
// nondeterministic inputs (wall clock, global RNG, environment). This is the
// scope of the nodetsource analyzer: the root engine facade and every
// internal package except the exempt ones. Command mains sit outside — they
// own the process boundary (flags, stderr timing output) and feed everything
// determinism-relevant through Config/Env values that the internal packages
// then guard.
func Deterministic(path string) bool {
	segs, ok := inModule(path)
	if !ok {
		return false
	}
	if len(segs) == 0 {
		return true // the root clustersim package
	}
	if segs[0] == "cmd" {
		return false
	}
	for _, s := range segs {
		if exempt[s] {
			return false
		}
	}
	return true
}

// Export reports whether the package at path produces results, traces,
// frame routes, hashes or rendered output whose byte-level content must not
// depend on map iteration order. This is the scope of the maporder
// analyzer: every Deterministic package plus the command mains, whose CSV
// and chart assembly is exactly the "snapshot/export path" the paper's
// repeatability claim extends to.
func Export(path string) bool {
	if Deterministic(path) {
		return true
	}
	segs, ok := inModule(path)
	return ok && len(segs) > 0 && segs[0] == "cmd"
}
