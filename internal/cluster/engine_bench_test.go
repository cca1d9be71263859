package cluster

import (
	"fmt"
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// BenchmarkFastPathRack measures a quantum between the latency levels, where
// a Q <= T gate would walk every node through the event queue but the
// partitioning still steps the loose ones directly.
// Three geometries: "rack8" is a uniform two-rack fat-tree (both racks tight
// at mid-Q — no loose nodes, so every node walks the queue; the honest
// negative control), "mixed8" is one tight rack plus four loose WAN
// singletons, and "mixed64" is the paper-scale motivating geometry — one
// tight rack plus 60 loose WAN nodes in the sync-overhead-dominated regime,
// where skipping the event queue for the loose majority pays the most.
func BenchmarkFastPathRack(b *testing.B) {
	scenarios := []struct {
		name  string
		nodes int
		net   func(nodes int) *netmodel.Model
		w     workloads.Workload
	}{
		{"rack8", 8, func(int) *netmodel.Model { return rackNet() },
			workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17)},
		{"mixed8", 8, mixedWANNet,
			workloads.Uniform(120, 2000, 30*simtime.Microsecond, 17)},
		{"mixed64", 64, mixedWANNet,
			workloads.Silent(200 * simtime.Microsecond)},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			var quanta int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := testConfig(sc.nodes, sc.w, fixed(2*simtime.Microsecond))
				cfg.Net = sc.net(sc.nodes)
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				quanta += int64(res.Stats.Quanta)
			}
			b.ReportMetric(float64(quanta)/b.Elapsed().Seconds(), "quanta/s")
		})
	}
}

// BenchmarkGroundTruthQuanta measures ground-truth (Q = 1µs) throughput in
// quanta per second: every node is loose in every quantum.
func BenchmarkGroundTruthQuanta(b *testing.B) {
	w := workloads.Phases(3, 150*simtime.Microsecond, 32<<10)
	var quanta int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := testConfig(4, w, fixed(simtime.Microsecond))
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		quanta += int64(res.Stats.Quanta)
	}
	b.ReportMetric(float64(quanta)/b.Elapsed().Seconds(), "quanta/s")
}

// BenchmarkQuietNodeQuantum measures the engine's smallest constant: what one
// node costs in one quantum in which it cannot act (DESIGN.md §7.1), which a
// ground-truth run multiplies by nodes × quanta. The workload is one long
// compute per rank at Q = 1µs, so every quantum but the first and the last is
// quiet. Under the Fixed policy the quanta of one jitter window collapse into
// one pass — one hostCost call per node per ten quanta; an Adaptive policy
// with inc a hair above 1 issues the same 1µs every time but could change it
// after any quantum, so it keeps every stretch at k = 1, the per-quantum
// constant: the quiet test, one hostCost call and a few lane writes. The ns/node-quantum metric divides the whole run, set-up included,
// by the node-quanta the quiet pass executed (counted by one observed run up
// front; the timed runs carry no observer).
func BenchmarkQuietNodeQuantum(b *testing.B) {
	policies := []struct {
		name string
		pol  func() quantum.Policy
	}{
		{"fixed", fixed(simtime.Microsecond)},
		{"adaptive-inc=1", adaptive(simtime.Microsecond, simtime.Millisecond, 1+1e-9, 0.02)},
	}
	for _, p := range policies {
		for _, nodes := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/nodes=%d", p.name, nodes), func(b *testing.B) {
				cfg := testConfig(nodes, workloads.Silent(5*simtime.Millisecond), p.pol)
				counted := cfg
				sum := &summaryObs{}
				counted.Observer = sum
				if _, err := Run(counted); err != nil {
					b.Fatal(err)
				}
				quiet := sum.sum.QuietNodeQuanta
				if quiet*100 < 99*nodes*sum.sum.Quanta {
					b.Fatalf("only %d of %d node-quanta are quiet: not measuring the quiet pass", quiet, nodes*sum.sum.Quanta)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*quiet), "ns/node-quantum")
			})
		}
	}
}
