package experiments

import (
	"testing"

	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// TestCalibrationShapesSmall runs a reduced-scale Figure 6-like grid on one
// workload pair and checks the paper's qualitative orderings. The full-scale
// shape validation lives in the paperfigs command and EXPERIMENTS.md.
func TestCalibrationShapesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration grid is slow")
	}
	env := DefaultEnv()
	ws := []workloads.Workload{NASSuite(0.1)[0], NASSuite(0.1)[1]} // EP, IS
	cells, err := Grid(env, ws, []int{4}, []Spec{
		FixedSpec("10", 10*simtime.Microsecond),
		FixedSpec("1k", 1000*simtime.Microsecond),
		DynSpec("dyn", 1*simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		t.Logf("%-8s n=%d %-4s err=%6.2f%% speedup=%6.2fx stragglers=%d quanta=%d meanQ=%v",
			c.Workload, c.Nodes, c.Config, c.AccErr*100, c.Speedup, c.Stats.Stragglers, c.Stats.Quanta, c.Stats.MeanQ)
	}

	ep1k := findCell(t, cells, "nas.ep", 4, "1k")
	is1k := findCell(t, cells, "nas.is", 4, "1k")
	epDyn := findCell(t, cells, "nas.ep", 4, "dyn")
	isDyn := findCell(t, cells, "nas.is", 4, "dyn")
	if is1k.AccErr <= ep1k.AccErr {
		t.Errorf("IS (alltoall) error %.2f%% not above EP error %.2f%% at Q=1000µs", is1k.AccErr*100, ep1k.AccErr*100)
	}
	if epDyn.AccErr >= ep1k.AccErr && ep1k.AccErr > 0.02 {
		t.Errorf("adaptive EP error %.2f%% not below fixed-1k %.2f%%", epDyn.AccErr*100, ep1k.AccErr*100)
	}
	if epDyn.Speedup < 2 {
		t.Errorf("adaptive EP speedup %.2fx too small", epDyn.Speedup)
	}
	if isDyn.AccErr > 0.30 {
		t.Errorf("adaptive IS error %.2f%% unexpectedly large", isDyn.AccErr*100)
	}
}
