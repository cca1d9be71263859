package cluster

import (
	"fmt"
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// BenchmarkPartitionedRack measures a quantum between the latency levels, where
// a Q <= T gate would walk every node through the event queue but the
// partitioning still steps the loose ones directly.
// Three geometries: "rack8" is a uniform two-rack fat-tree (both racks tight
// at mid-Q — no loose nodes, so every node walks the queue; the honest
// negative control), "mixed8" is one tight rack plus four loose WAN
// singletons, and "mixed64" is the paper-scale motivating geometry — one
// tight rack plus 60 loose WAN nodes in the sync-overhead-dominated regime,
// where skipping the event queue for the loose majority pays the most.
func BenchmarkPartitionedRack(b *testing.B) {
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
			benchQuanta(b, Run, func() Config {
				return row(sc.name, sc.nodes, sc.w, fixed(2*simtime.Microsecond), onNet(sc.net(sc.nodes))).cfg
			})
		})
	}
}

// benchQuanta times run on a configuration mk builds each iteration — its
// allocations count too — and reports the throughput in quanta per second.
func benchQuanta(b *testing.B, run func(Config) (*Result, error), mk func() Config) {
	var quanta int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(mk())
		if err != nil {
			b.Fatal(err)
		}
		quanta += res.Stats.Quanta
	}
	b.ReportMetric(float64(quanta)/b.Elapsed().Seconds(), "quanta/s")
}

// BenchmarkGroundTruthQuanta measures ground-truth (Q = 1µs) throughput in
// quanta per second: every node is loose in every quantum.
func BenchmarkGroundTruthQuanta(b *testing.B) {
	benchQuanta(b, Run, func() Config {
		return testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 32<<10), fixed(simtime.Microsecond))
	})
}

// BenchmarkParallelBarrier measures the parallel runner's synchronization
// throughput: an 8-node communicating workload under a small fixed quantum.
// This is the barrier + routing hot path — the per-quantum cost of waking
// nodes, collecting arrivals and releasing the controller.
func BenchmarkParallelBarrier(b *testing.B) {
	benchQuanta(b, runners[1].run, func() Config {
		return testConfig(8, workloads.Phases(6, 200*simtime.Microsecond, 16<<10), fixed(20*simtime.Microsecond))
	})
}

// BenchmarkQuietNodeQuantum measures the engine's smallest constant: what one
// node costs in one quantum in which it cannot act (DESIGN.md §2.3), which a
// ground-truth run multiplies by nodes × quanta. The workload is one long
// compute per rank at Q = 1µs, so every quantum but the first and the last is
// quiet. Under the Fixed policy a whole quiet run is one pass, one multiply
// per node per jitter window of ten quanta; an Adaptive policy with inc a hair
// above 1 issues the same 1µs every time but could change it after any
// quantum, so it keeps every stretch at k = 1, the per-quantum constant: the
// quiet test, one multiply per node and a few lane writes. The sitout row
// prices the same multiply where the quanta are stepped: 64 nodes on a tight
// 500ns rack plus 2µs WAN singletons at Q = 2µs with sparse traffic, so most
// quiet node-quanta are nodes sitting out a quantum others act in. The
// ns/node-quantum metric divides the whole run, set-up included, by the
// node-quanta the quiet pass executed (counted by one observed run up front;
// the timed runs carry no observer).
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
				benchQuiet(b, testConfig(nodes, workloads.Silent(5*simtime.Millisecond), p.pol), false)
			})
		}
	}
	b.Run("sitout/mixedwan64", func(b *testing.B) {
		benchQuiet(b, row("sitout", 64, workloads.Uniform(100, 4000, 100*simtime.Microsecond, 29),
			fixed(2*simtime.Microsecond), onNet(mixedWANNetAt(64, 2*simtime.Microsecond))).cfg, true)
	})
}

// benchQuiet times runs of cfg and reports ns per quiet node-quantum. Unless
// most node-quanta are quiet — or, with sitOuts, unless most quiet ones are
// nodes sitting out a stepped quantum — it is not measuring that, and fails.
func benchQuiet(b *testing.B, cfg Config, sitOuts bool) {
	counted, sum := cfg, &endCounter{}
	counted.Observer = sum
	if _, err := Run(counted); err != nil {
		b.Fatal(err)
	}
	quiet, whole := sum.sum.QuietNodeQuanta, cfg.Nodes*sum.sum.QuietQuanta
	if !sitOuts && quiet*100 < 99*cfg.Nodes*sum.sum.Quanta {
		b.Fatalf("only %d of %d node-quanta are quiet: not measuring the quiet pass", quiet, cfg.Nodes*sum.sum.Quanta)
	}
	if sitOuts && (quiet-whole)*2 < quiet {
		b.Fatalf("only %d of %d quiet node-quanta sit out a stepped quantum", quiet-whole, quiet)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*quiet), "ns/node-quantum")
}

// BenchmarkRestingNodes is the loose-stepped column of the scaling table: ns
// per node-quantum against the node count, on the graded geometry — one tight
// 500ns 4-node rack plus 2µs WAN singletons at Q = 2µs — under the sparse
// Uniform traffic of the paper-scale benchmark row, so each stepped quantum
// has a few acting nodes beside many that sit out. The metric divides the
// whole run, set-up and the quiet stretches between stepped quanta included,
// by the node-quanta of its stepped quanta (counted by one observed run up
// front; the timed runs carry no observer): it stays flat as nodes grow while
// a sit-out costs a constant.
func BenchmarkRestingNodes(b *testing.B) {
	for _, nodes := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cfg := row("resting", nodes, workloads.Uniform(20, 4000, 100*simtime.Microsecond, 29),
				fixed(2*simtime.Microsecond), onNet(mixedWANNetAt(nodes, 2*simtime.Microsecond))).cfg
			counted, sum := cfg, &endCounter{}
			counted.Observer = sum
			if _, err := Run(counted); err != nil {
				b.Fatal(err)
			}
			stepped := nodes * (sum.sum.Quanta - sum.sum.QuietQuanta)
			if sitOuts := sum.sum.QuietNodeQuanta - nodes*sum.sum.QuietQuanta; sitOuts*2 < stepped {
				b.Fatalf("only %d of %d stepped node-quanta sit out", sitOuts, stepped)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stepped), "ns/node-quantum")
		})
	}
}

// BenchmarkTightWalk measures the event-queue walk (DESIGN.md §2.2), the loop
// every paper figure above Q = T runs: NAS IS and CG on 8 nodes at Q = 10µs
// and 1ms, where the whole cluster walks as one tight partition. The
// ns/event metric divides the whole run, set-up included, by the walk's
// events, counted by one observed run up front as the record stream shows
// them (walkCounter); the timed runs carry no observer.
func BenchmarkTightWalk(b *testing.B) {
	for _, w := range []workloads.Workload{workloads.IS(workloads.DefaultIS()), workloads.CG(workloads.DefaultCG())} {
		for _, q := range []simtime.Duration{10 * simtime.Microsecond, simtime.Millisecond} {
			b.Run(fmt.Sprintf("%s/Q=%v", w.Name, q), func(b *testing.B) {
				cfg := testConfig(8, w, fixed(q))
				counted, c := cfg, &walkCounter{}
				counted.Observer = c
				if _, err := Run(counted); err != nil {
					b.Fatal(err)
				}
				if c.loose > 0 {
					b.Fatalf("%d loose node-quanta: not measuring one tight partition", c.loose)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Run(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.events), "ns/event")
			})
		}
	}
}

// walkCounter counts a run's event-queue events as its record stream shows
// them: a frame event per routed frame, a node event per stepped busy or idle
// segment, less the quiet pass's one segment per node-quantum. It counts the
// loose node-quanta too, which a tight walk has none of.
type walkCounter struct {
	obs.Base
	events, loose int
}

func (c *walkCounter) QuantumPartition(_ int, p *obs.Partitioning) { c.loose += p.Loose }
func (c *walkCounter) Packet(obs.PacketRecord)                     { c.events++ }
func (c *walkCounter) RunEnd(s obs.RunSummary)                     { c.events -= s.QuietNodeQuanta }
func (c *walkCounter) NodePhase(_ int, ph obs.Phase, _, _ simtime.Guest, _, _ simtime.Host) {
	if ph != obs.PhaseDone {
		c.events++
	}
}
