package cluster

import (
	"testing"

	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// BenchmarkParallelBarrier measures the parallel runner's synchronization
// throughput: an 8-node communicating workload under a small fixed quantum,
// reported as quanta per second. This is the barrier + routing hot path — the
// per-quantum cost of waking nodes, collecting arrivals and releasing the
// controller — so it is the headline number for the channel-based barrier.
func BenchmarkParallelBarrier(b *testing.B) {
	w := workloads.Phases(6, 200*simtime.Microsecond, 16<<10)
	b.ReportAllocs()
	var quanta int
	for i := 0; i < b.N; i++ {
		res, err := RunParallel(testConfig(8, w, fixed(20*simtime.Microsecond)), 0)
		if err != nil {
			b.Fatal(err)
		}
		quanta += res.Stats.Quanta
	}
	b.ReportMetric(float64(quanta)/b.Elapsed().Seconds(), "quanta/s")
}
