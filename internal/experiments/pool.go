package experiments

import "clustersim/internal/workerpool"

// runAll executes jobs on a bounded worker pool (internal/workerpool). A job
// is one independent deterministic simulation that writes its result into a
// caller-owned slot keyed by the job's index, so the assembled output order
// never depends on scheduling. workers <= 0 uses GOMAXPROCS — each simulation
// is single-threaded, so one worker per host core saturates the machine —
// and workers == 1 runs the jobs in order on the calling goroutine, the
// reference for the determinism tests.
//
// Error reporting is deterministic regardless of completion order: the
// error of the lowest-indexed failing job is returned (later jobs still run
// to completion, as they would sequentially with errors collected).
func runAll(workers int, jobs []func() error) error {
	if len(jobs) == 0 {
		return nil
	}
	errs := make([]error, len(jobs))
	pool := workerpool.New(min(workers, len(jobs)))
	defer pool.Close()
	pool.Run(len(jobs), func(i int) {
		errs[i] = jobs[i]()
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
