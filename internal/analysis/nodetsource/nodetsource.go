// Package nodetsource defines a simlint analyzer that forbids hidden
// nondeterministic inputs — wall-clock reads, the global math/rand source,
// and environment lookups — in determinism-critical packages.
//
// The engine's repeatability contract (same workload, config and seed ⇒
// bit-identical Result/Stats/traces, for every worker count) only holds if
// no simulation-affecting value ever comes from outside that triple. All
// sanctioned randomness flows through clustersim/internal/rng streams and
// hashes; simulated time flows through simtime. Anything else is a latent
// repeatability bug, even when today's call sites look harmless.
//
// Two escape hatches exist, both requiring a one-line justification:
//
//	//simlint:wallclock <why>   for legitimate wall-clock reads (progress
//	                            reporting, the real-time parallel runner's
//	                            spin calibration)
//	//simlint:nodetsource <why> for any other finding of this analyzer
package nodetsource

import (
	"go/ast"

	"clustersim/internal/analysis/critpkg"
	"clustersim/internal/analysis/framework"
)

// Analyzer flags nondeterministic input sources in determinism-critical
// packages.
var Analyzer = &framework.Analyzer{
	Name: "nodetsource",
	Doc: "forbid wall-clock, global math/rand and environment reads in " +
		"determinism-critical packages (escape: //simlint:wallclock or //simlint:nodetsource)",
	Directives: []string{"wallclock", "nodetsource"},
	Run:        run,
}

// wallClockFuncs are the package time functions that read the real clock.
// Constructors (time.Duration literals, time.Millisecond) and pure
// arithmetic helpers stay legal: only clock reads break repeatability.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
	"Tick":  true,
	"After": true,
	"Sleep": true,
	// NewTicker/NewTimer schedule against the real clock.
	"NewTicker": true,
	"NewTimer":  true,
	"AfterFunc": true,
}

// envFuncs are the package os functions that read the process environment.
var envFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

func run(pass *framework.Pass) (any, error) {
	if !critpkg.Deterministic(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if wallClockFuncs[obj.Name()] {
					pass.Report("wallclock", id.Pos(),
						"time.%s reads the wall clock in determinism-critical package %s; "+
							"model time via simtime/the host-cost model, or annotate //simlint:wallclock <why>",
						obj.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				pass.Report("nodetsource", id.Pos(),
					"math/rand (%s) is not a sanctioned randomness source in determinism-critical package %s; "+
						"route all randomness through clustersim/internal/rng streams/hashes, "+
						"or annotate //simlint:nodetsource <why>",
					obj.Name(), pass.Pkg.Path())
			case "os":
				if envFuncs[obj.Name()] {
					pass.Report("nodetsource", id.Pos(),
						"os.%s reads the process environment in determinism-critical package %s; "+
							"thread configuration through Config/Env values, or annotate //simlint:nodetsource <why>",
						obj.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}
