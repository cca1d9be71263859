package experiments

import (
	"runtime"

	"clustersim/internal/workerpool"
)

// job is one independent deterministic simulation of an experiment grid.
// Each job writes its result into a caller-owned slot keyed by the job's
// index, so the assembled output order never depends on scheduling.
type job struct {
	run  func() error
	name string
}

// runAll executes jobs on a bounded worker pool (internal/workerpool).
// workers <= 0 uses GOMAXPROCS — each simulation is single-threaded, so one
// worker per host core saturates the machine.
//
// Error reporting is deterministic regardless of completion order: the
// error of the lowest-indexed failing job is returned (later jobs still run
// to completion, as they would sequentially with errors collected).
func runAll(workers int, jobs []job) error {
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers == 1 {
		// The sequential path keeps -workers=1 runs free of goroutine
		// scheduling entirely (and is the reference order for determinism
		// tests).
		var first error
		for _, j := range jobs {
			if err := j.run(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, len(jobs))
	pool := workerpool.New(workers)
	defer pool.Close()
	pool.Run(len(jobs), func(i int) {
		errs[i] = jobs[i].run()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
