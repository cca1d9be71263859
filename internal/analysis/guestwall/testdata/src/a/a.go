// Package a is simlint testdata for the guest-time / wall-clock
// unit-confusion analyzer. It imports the real simtime package so the type
// identities match production code exactly.
package a

import (
	"time"

	"clustersim/internal/simtime"
)

// mixed exercises the flagged cross-domain conversions.
func mixed(g simtime.Guest, sd simtime.Duration, d time.Duration, t0 time.Time) {
	_ = time.Duration(g)    // want `conversion to time\.Duration from an expression carrying simulated time \(simtime\)`
	_ = time.Duration(sd)   // want `conversion to time\.Duration from an expression carrying simulated time`
	_ = simtime.Duration(d) // want `conversion to simtime\.Duration from an expression carrying wall-clock time \(package time\)`

	// Laundering through float64/int64 inside the same expression does not
	// hide the origin domain.
	_ = time.Duration(float64(g.Sub(0)) * 1.5)     // want `conversion to time\.Duration from an expression carrying simulated time`
	_ = simtime.Host(time.Since(t0).Nanoseconds()) // want `conversion to simtime\.Host from an expression carrying wall-clock time`
}

// sameDomain shows conversions that stay inside one domain: allowed.
func sameDomain(ns int64, sd simtime.Duration, d time.Duration) {
	_ = simtime.Duration(ns)        // plain integer: no domain
	_ = time.Duration(ns)           // plain integer: no domain
	_ = int64(sd)                   // leaving a domain for untyped math
	_ = simtime.Guest(sd)           // sim → sim
	_ = simtime.Duration(int64(sd)) // sim → sim through int64
	_ = time.Duration(d / 2)        // wall → wall
}

// bridge is a sanctioned wall→host conversion with a justification.
func bridge(t0 time.Time) simtime.Host {
	//simlint:guestwall testdata justification: sanctioned real-time bridge
	return simtime.Host(time.Since(t0).Nanoseconds())
}

// bareDirective still suppresses the finding but is itself reported.
func bareDirective(t0 time.Time) simtime.Host {
	//simlint:guestwall // want `//simlint:guestwall directive needs a one-line justification`
	return simtime.Host(time.Since(t0).Nanoseconds())
}

// staleDirective carries a category no analyzer of the run reads (here a
// typo): it suppresses nothing and is reported at the directive.
func staleDirective(d time.Duration) time.Duration {
	return d * 2 //simlint:guestwal typo of the category above // want `unknown directive //simlint:guestwal: no analyzer reads it \(known: guestwall\)`
}
