package cluster

import (
	"strings"
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// randLatModel builds a MatrixSwitch model with deterministic pseudo-random
// pair latencies drawn from a handful of distinct levels, plus a zero-latency
// NIC so the matrix IS the lookahead. Asymmetric on purpose: the closure must
// join on a tight link in either direction.
func randLatModel(stream *rng.Stream, nodes int) *netmodel.Model {
	levels := []simtime.Duration{
		500 * simtime.Nanosecond,
		simtime.Microsecond,
		2 * simtime.Microsecond,
		5 * simtime.Microsecond,
		20 * simtime.Microsecond,
	}
	lat := make([][]simtime.Duration, nodes)
	for s := range lat {
		lat[s] = make([]simtime.Duration, nodes)
		for d := range lat[s] {
			if s != d {
				lat[s][d] = levels[stream.Intn(len(levels))]
			}
		}
	}
	return &netmodel.Model{
		NIC:    &netmodel.SimpleNIC{BaseLatency: 0},
		Switch: &netmodel.MatrixSwitch{Lat: lat},
	}
}

// TestPartitioningIsLookaheadClosed is the safety property behind the
// partitioned fast path: for random matrices and every quantum band, no
// directed link with latency below Q may cross partitions, every fast node is
// a loose singleton, and every multi-node partition is connected through
// tight links alone.
func TestPartitioningIsLookaheadClosed(t *testing.T) {
	stream := rng.New(0xA11CE)
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + stream.Intn(15)
		m := randLatModel(stream.Split(uint64(trial)), nodes)
		la := newLookahead(m, nodes)
		if want := minLinkLat(m, nodes); la.min != want || want <= 0 {
			t.Fatalf("trial %d: lookahead min %v != positive matrix minimum %v", trial, la.min, want)
		}
		// Probe one Q inside every band: at each level (tight set excludes
		// the level itself), just above it, and far beyond the top.
		qs := []simtime.Duration{la.levels[0] / 2}
		for _, lv := range la.levels {
			qs = append(qs, lv, lv+1)
		}
		qs = append(qs, la.levels[len(la.levels)-1]*4)
		for _, q := range qs {
			p := la.partitionFor(q)
			checkClosure(t, la, p, q)
			if t.Failed() {
				t.Fatalf("trial %d nodes=%d Q=%v", trial, nodes, q)
			}
		}
	}
}

// checkClosure verifies the structural invariants of one partitioning.
func checkClosure(t *testing.T, la *lookahead, p *partitioning, q simtime.Duration) {
	t.Helper()
	n := la.n
	tight := func(s, d int) bool { return la.lat[s*n+d] < q }

	// No tight directed link crosses partitions, and maxTightLat is exactly
	// the tight/loose threshold.
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if tight(s, d) != (la.lat[s*n+d] <= p.MaxTightLat) {
				t.Errorf("link %d->%d: lat %v vs maxTightLat %v disagrees with Q %v",
					s, d, la.lat[s*n+d], p.MaxTightLat, q)
			}
			if tight(s, d) && p.Part[s] != p.Part[d] {
				t.Errorf("tight link %d->%d (lat %v < Q %v) crosses partitions %d/%d",
					s, d, la.lat[s*n+d], q, p.Part[s], p.Part[d])
			}
		}
	}

	// Fast nodes are exactly the singletons with no tight link either way.
	fast := 0
	for i := 0; i < n; i++ {
		loose := true
		for j := 0; j < n && loose; j++ {
			if j != i && (tight(i, j) || tight(j, i)) {
				loose = false
			}
		}
		if p.fastNode[i] != loose {
			t.Errorf("node %d: fastNode=%v but loose=%v", i, p.fastNode[i], loose)
		}
		if loose {
			fast++
		}
	}
	if fast != p.FastNodes || len(p.loose) != fast {
		t.Errorf("fastNodes=%d loose=%d, want %d", p.FastNodes, len(p.loose), fast)
	}

	// Every multi-node partition is connected through undirected tight links
	// alone (BFS from its first member), and partition ids are canonical.
	seen := 0
	for pid, members := range p.tight {
		reach := map[int32]bool{members[0]: true}
		frontier := []int32{members[0]}
		for len(frontier) > 0 {
			var next []int32
			for _, u := range frontier {
				for v := 0; v < n; v++ {
					w := int32(v)
					if !reach[w] && (tight(int(u), v) || tight(v, int(u))) {
						reach[w] = true
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		for _, mbr := range members {
			if !reach[mbr] {
				t.Errorf("partition %d member %d unreachable through tight links", pid, mbr)
			}
		}
		if len(reach) != len(members) {
			t.Errorf("partition %d: tight closure has %d nodes, member list %d", pid, len(reach), len(members))
		}
		seen += len(members)
	}
	if seen+fast != n || p.Partitions != len(p.tight)+fast {
		t.Errorf("partition counts: tight members %d + fast %d != %d nodes (nparts=%d)",
			seen, fast, n, p.Partitions)
	}
}

// TestPartitionForCachesPerBand: two quanta in the same latency band must
// share one partitioning object; crossing a level must change it.
func TestPartitionForCachesPerBand(t *testing.T) {
	la := newLookahead(rackNet(), 8)
	if len(la.levels) != 2 {
		t.Fatalf("rack matrix levels = %v, want 2 distinct", la.levels)
	}
	intra, inter := la.levels[0], la.levels[1]
	mid1 := la.partitionFor(intra + 1)
	mid2 := la.partitionFor(inter) // lat == Q is loose: same band
	if mid1 != mid2 {
		t.Error("same-band quanta built distinct partitionings")
	}
	if mid1.MaxTightLat != intra || len(mid1.tight) != 2 || mid1.FastNodes != 0 {
		t.Errorf("mid-band partitioning: %+v", mid1)
	}
	full := la.partitionFor(intra) // Q == min: fully loose
	if full.FastNodes != 8 || full.Partitions != 8 || full.MaxTightLat != 0 {
		t.Errorf("fully loose partitioning: %+v", full)
	}
	one := la.partitionFor(inter + 1)
	if one.Partitions != 1 || one.FastNodes != 0 || one.MaxTightLat != inter {
		t.Errorf("fully tight partitioning: %+v", one)
	}
}

// TestLookaheadDegenerate: sub-2-node clusters and zero-lookahead topologies
// rule lookahead out — no bound, and every quantum the whole cluster as one
// tight partition.
func TestLookaheadDegenerate(t *testing.T) {
	zero := &netmodel.Model{
		NIC:    &netmodel.SimpleNIC{BaseLatency: 0},
		Switch: &netmodel.PerfectSwitch{},
	}
	for name, la := range map[string]*lookahead{
		"1-node cluster":        newLookahead(netmodel.Paper(), 1),
		"zero-latency topology": newLookahead(zero, 4),
	} {
		if la.min != 0 || len(la.levels) != 0 {
			t.Errorf("%s built a lookahead: min %v, levels %v", name, la.min, la.levels)
		}
		for _, q := range []simtime.Duration{1, simtime.Microsecond, simtime.Second} {
			p := la.partitionFor(q)
			if p != la.wholeCluster() || p.FastNodes != 0 || len(p.loose) != 0 || len(p.tight) != 1 || len(p.tight[0]) != la.n {
				t.Errorf("%s, Q=%v: partitioning %+v, want the whole cluster tight", name, q, p)
			}
		}
	}
}

// minLinkLat is the paper's T for a model: the smallest off-diagonal entry of
// its lookahead matrix.
func minLinkLat(m *netmodel.Model, nodes int) simtime.Duration {
	var min simtime.Duration
	for i, l := range m.LookaheadMatrix(nodes) {
		if i/nodes != i%nodes && (min == 0 || l < min) {
			min = l
		}
	}
	return min
}

// A run whose lookahead is ruled out — an output tap, a one-node cluster —
// executes every quantum as the whole cluster through one event queue, is
// accounted no engagement, and tells the stream nothing about partitions.
func TestRuledOutLookaheadRun(t *testing.T) {
	tap := testConfig(4, incast(8<<10), fixed(simtime.Microsecond))
	tap.Net = contendedNet()
	one := testConfig(1, workloads.Silent(50*simtime.Microsecond), fixed(simtime.Microsecond))
	for name, cfg := range map[string]Config{"output tap": tap, "one node": one} {
		rec := &recorder{}
		cfg.Observer = rec
		cfg.onPartition = func(p *partitioning) bool {
			if len(p.loose) != 0 || len(p.tight) != 1 || len(p.tight[0]) != cfg.Nodes {
				t.Errorf("%s: executed with %d loose nodes and tight partitions %v", name, len(p.loose), p.tight)
			}
			return false
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := res.Stats; s.FastFullQuanta+s.FastPartialQuanta+s.FastNodeQuanta+s.PartialPartitions != 0 {
			t.Errorf("%s: engagement accounted without lookahead: %+v", name, s)
		}
		for _, ev := range rec.events {
			if strings.HasPrefix(ev, "part ") || strings.Contains(ev, "FastEligible:true") {
				t.Fatalf("%s: stream says %q", name, ev)
			}
		}
	}
}
