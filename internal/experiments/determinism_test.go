package experiments

import (
	"errors"
	"reflect"
	"testing"
)

// runAll's error contract, for any worker count: every job runs whatever
// fails, and the error returned is the lowest-indexed failing job's, not the
// first to fail in time — with more than one worker, job 3 does not fail
// until job 7 has.
func TestRunAllReportsLowestIndexedError(t *testing.T) {
	err3, err7 := errors.New("job 3 failed"), errors.New("job 7 failed")
	for _, workers := range []int{1, 2, 8} {
		ran := make([]bool, 10)
		failed7 := make(chan struct{})
		jobs := make([]func() error, len(ran))
		for i := range jobs {
			jobs[i] = func() error {
				ran[i] = true
				switch i {
				case 3:
					if workers > 1 {
						<-failed7
					}
					return err3
				case 7:
					close(failed7)
					return err7
				}
				return nil
			}
		}
		if err := runAll(workers, jobs); !errors.Is(err, err3) {
			t.Errorf("workers=%d: runAll = %v, want job 3's error", workers, err)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("workers=%d: job %d did not run", workers, i)
			}
		}
	}
}

// The experiment fan-out must be invisible in the results: the same grid
// run sequentially and with an oversubscribed worker pool has to produce
// identical aggregated rows and identical per-cell values, in the same
// order. (Each simulation is deterministic; this pins the assembly.)
func TestFig6WorkerCountInvariance(t *testing.T) {
	run := func(workers int) ([]AggRow, []Cell) {
		env := DefaultEnv()
		env.Workers = workers
		rows, cells, err := Fig6(env, 0.02, []int{2, 4})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows, cells
	}
	rows1, cells1 := run(1)
	rows8, cells8 := run(8)
	if len(rows1) == 0 || len(cells1) == 0 {
		t.Fatal("empty Fig6 output")
	}
	if !reflect.DeepEqual(rows1, rows8) {
		t.Errorf("aggregated rows differ between workers=1 and workers=8:\n%+v\n%+v", rows1, rows8)
	}
	if !reflect.DeepEqual(cells1, cells8) {
		t.Error("cells differ between workers=1 and workers=8")
	}
}

// Same invariance for the sweep runners that assemble by index.
func TestAblationWorkerCountInvariance(t *testing.T) {
	w := NASSuite(0.02)[1] // nas.is, traffic-heavy and quick at tiny scale
	run := func(workers int) []Cell {
		env := DefaultEnv()
		env.Workers = workers
		rows, err := AblationIncDec(env, w, 2, []float64{1.03, 1.1}, []float64{0.02, 0.5})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rows
	}
	r1 := run(1)
	r4 := run(4)
	if len(r1) != 4 {
		t.Fatalf("want 4 rows, got %d", len(r1))
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("ablation rows differ between workers=1 and workers=4:\n%+v\n%+v", r1, r4)
	}
}

// The shared table of host speed draws must be invisible in the results:
// Figure 6's rows and every cell are identical whether each run of the grid
// computes its own draws (no table), the runs share one sequentially, or an
// oversubscribed pool fills and reads it concurrently (with -race, the
// end-to-end data-race proof for host.Speeds under the worker pool).
func TestGridSharedDrawsIdentical(t *testing.T) {
	const scale = 0.02
	nodeCounts := []int{2, 4}
	env := DefaultEnv()
	env.Workers = 1
	private, err := measure(env, gridPoints(NASSuite(scale), nodeCounts, StandardSpecs()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(private) == 0 {
		t.Fatal("empty grid")
	}
	wantRows := aggregateNAS(private, nodeCounts, StandardSpecs())
	for _, workers := range []int{1, 8} {
		env.Workers = workers
		rows, cells, err := Fig6(env, scale, nodeCounts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(cells, private) {
			t.Errorf("workers=%d: cells with the shared table differ from the cells of private draws", workers)
		}
		if !reflect.DeepEqual(rows, wantRows) {
			t.Errorf("workers=%d: Fig6 rows with the shared table differ:\n%+v\n%+v", workers, rows, wantRows)
		}
	}
}
