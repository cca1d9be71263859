package clustersim_test

import (
	"testing"

	"clustersim"
	"clustersim/internal/mpi"
)

// echoProgram is a small app used to exercise the public API end to end.
func echoProgram(rank, size int) clustersim.Program {
	return func(p *clustersim.Proc) error {
		comm := mpi.New(p)
		p.Compute(100 * clustersim.Microsecond)
		comm.Allreduce(64)
		p.Compute(100 * clustersim.Microsecond)
		comm.Barrier()
		if rank == 0 {
			p.Report("time_s", clustersim.Duration(p.Now()).Seconds())
		}
		return nil
	}
}

func TestPublicAPIGroundTruth(t *testing.T) {
	cfg := clustersim.NewConfig(4, echoProgram)
	res, err := clustersim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stragglers != 0 {
		t.Errorf("default config (ground truth) produced %d stragglers", res.Stats.Stragglers)
	}
	if v, ok := res.Metric("time_s"); !ok || v <= 0 {
		t.Errorf("bad metric: %v ok=%v", v, ok)
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	cfg := clustersim.NewConfig(4, echoProgram)
	cfg.Policy = clustersim.AdaptiveQuantum(
		1*clustersim.Microsecond, 1000*clustersim.Microsecond, 1.03, 0.02)
	res, err := clustersim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName == "" {
		t.Error("missing policy name")
	}
	truth, err := clustersim.Run(clustersim.NewConfig(4, echoProgram))
	if err != nil {
		t.Fatal(err)
	}
	if res.HostTime >= truth.HostTime {
		t.Errorf("adaptive host time %v not below ground truth %v", res.HostTime, truth.HostTime)
	}
}

func TestRecommendedDec(t *testing.T) {
	d := clustersim.RecommendedDec(1*clustersim.Microsecond, 1000*clustersim.Microsecond)
	if d <= 0 || d >= 1 {
		t.Errorf("RecommendedDec out of range: %v", d)
	}
}

func TestDefaults(t *testing.T) {
	if clustersim.PaperNetwork().LookaheadMatrix(2)[1] < 1*clustersim.Microsecond {
		t.Error("paper network T below 1µs")
	}
	if clustersim.DefaultHost().Validate() != nil {
		t.Error("default host params invalid")
	}
	if clustersim.DefaultGuest().CPUHz <= 0 {
		t.Error("default guest config invalid")
	}
}
