package workerpool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// Every index in [0, n) must be executed exactly once, for any combination
// of pool size and batch size (n smaller than, equal to, and larger than
// the worker count), across repeated batches on the same pool.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, workers - 1, workers, workers + 1, 97} {
			if n < 0 {
				continue
			}
			counts := make([]atomic.Int32, n)
			p.Run(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: fn(%d) ran %d times, want 1", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	if p1 := New(1); p1.Workers() != 1 {
		t.Errorf("New(1).Workers() = %d, want 1", p1.Workers())
	}
}

// A 1-worker pool must run inline on the submitting goroutine in index
// order — the reference sequential schedule the experiment fan-out documents
// for workers == 1.
func TestSingleWorkerRunsInlineInOrder(t *testing.T) {
	p := New(1)
	defer p.Close()
	var order []int
	p.Run(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v, want 0..4 ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("ran %d calls, want 5", len(order))
	}
}

// Uneven per-index cost must not deadlock or drop work when batches are
// reissued back to back (the engine issues one batch per quantum).
func TestRepeatedBatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	const rounds, n = 200, 9
	for r := 0; r < rounds; r++ {
		p.Run(n, func(i int) {
			if i%3 == 0 {
				runtime.Gosched()
			}
			total.Add(1)
		})
	}
	if got := total.Load(); got != rounds*n {
		t.Errorf("ran %d calls across %d batches, want %d", got, rounds, rounds*n)
	}
}

func TestCloseOnSingleWorkerPool(t *testing.T) {
	p := New(1)
	p.Close() // must not panic (no channel exists)
}
