// Package flushy is the in-scope errdiscard corpus: its import path places
// it inside critpkg.Export, so every discard form reports.
package flushy

type writer struct{ err error }

func (w *writer) Flush() error   { return w.err }
func (w *writer) Err() error     { return w.err }
func (w *writer) Write(p []byte) { _ = p }
func (w *writer) Close() error   { return w.err } // not a shaped name
func (w *writer) FlushHard()     {}               // shaped name needs an error result

type plan struct{}

func (p plan) Validate() (int, error) { return 0, nil }

// Flusher exercises the interface-method path: the shape is the contract.
type Flusher interface {
	Flush() error
}

func discards(w *writer, p plan, f Flusher) {
	w.Flush()           // want `error returned by \(\*flushy\.writer\)\.Flush is dropped`
	_ = w.Flush()       // want `error returned by \(\*flushy\.writer\)\.Flush is assigned to _`
	defer w.Flush()     // want `error returned by \(\*flushy\.writer\)\.Flush is dropped \(deferred call result\)`
	go w.Err()          // want `error returned by \(\*flushy\.writer\)\.Err is dropped \(goroutine result\)`
	_, _ = p.Validate() // want `error returned by \(flushy\.plan\)\.Validate is assigned to _`
	f.Flush()           // want `error returned by \(flushy\.Flusher\)\.Flush is dropped`

	w.Flush() //simlint:errdiscard corpus: re-checked by the explicit Flush below

	// Negatives: handled, wrong shape, or no error result.
	if err := w.Flush(); err != nil {
		_ = err
	}
	n, err := p.Validate()
	_, _ = n, err
	w.Close() // Close is not a shaped name
	w.FlushHard()
	w.Write(nil)

	// A blank error slot in a multi-assign still discards.
	v, _ := p.Validate() // want `error returned by \(flushy\.plan\)\.Validate is assigned to _`
	_ = v
}
