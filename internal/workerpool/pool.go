// Package workerpool provides the bounded work-stealing pool behind the
// experiment fan-out: parallelism *across* independent simulations
// (DESIGN.md §8). A simulation itself runs on one goroutine.
//
// The pool executes index-addressed batches: Run(n, fn) calls fn(0..n-1)
// exactly once each, in an unspecified order, and returns only after every
// call has finished. Callers obtain determinism by writing results into
// per-index slots — never by relying on completion order.
package workerpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of worker goroutines executing batches of indexed
// calls. The submitting goroutine always participates in the batch, so a
// 1-worker pool runs everything inline with no goroutines, no channels and
// no atomics — the reference sequential order.
type Pool struct {
	workers int
	work    chan batch
	// next and wg are reused across Run calls (Run is never concurrent with
	// itself), keeping the per-batch steady state allocation-free for a
	// caller that issues many batches; every production pool runs a single
	// batch today.
	next atomic.Int64
	wg   sync.WaitGroup
}

// batch is one Run invocation: a shared claim counter over [0, n).
type batch struct {
	n    int
	fn   func(int)
	next *atomic.Int64
	wg   *sync.WaitGroup
}

// New creates a pool of the given size; workers <= 0 means GOMAXPROCS.
// The pool keeps workers-1 goroutines parked on a channel (the submitter is
// the remaining worker). Close releases them.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.work = make(chan batch)
		for i := 0; i < workers-1; i++ {
			go func() {
				for b := range p.work {
					b.run()
				}
			}()
		}
	}
	return p
}

// Workers returns the pool size (including the submitter).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(i) for every i in [0, n) and returns when all calls have
// completed. Calls are claimed one at a time from a shared atomic counter,
// so uneven per-index cost balances automatically. Run must not be called
// concurrently with itself or after Close.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	if p.work == nil || helpers == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.next.Store(0)
	p.wg.Add(helpers)
	b := batch{n: n, fn: fn, next: &p.next, wg: &p.wg}
	for i := 0; i < helpers; i++ {
		p.work <- b
	}
	// The submitter steals alongside the helpers.
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	p.wg.Wait()
}

func (b batch) run() {
	defer b.wg.Done()
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(i)
	}
}

// Close releases the parked worker goroutines. The pool must not be used
// afterwards. Close is safe on a 1-worker pool.
func (p *Pool) Close() {
	if p.work != nil {
		close(p.work)
	}
}
