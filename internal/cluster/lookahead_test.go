package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/rng"
	"clustersim/internal/simtime"
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
// partitioned walks: for random matrices and every quantum band, the
// partitions are exactly the components of the links below Q — no tight link
// crosses them, every one is connected through tight links alone, and the
// loose nodes are the singletons — as the reference engine's union-find
// computes them independently.
func TestPartitioningIsLookaheadClosed(t *testing.T) {
	stream := rng.New(0xA11CE)
	for trial := 0; trial < 50; trial++ {
		nodes := 2 + stream.Intn(15)
		m := randLatModel(stream.Split(uint64(trial)), nodes)
		la := newLookahead(m, nodes)
		if want := minLinkLat(m, nodes); la.min != want || want <= 0 {
			t.Fatalf("trial %d: lookahead min %v != positive matrix minimum %v", trial, la.min, want)
		}
		ref := &refEngine{nodes: make([]*refNode, nodes), lat: m.LookaheadMatrix(nodes), T: la.min, parts: map[simtime.Duration]*obs.Partitioning{}}
		// Probe one Q inside every band: at each level (tight set excludes
		// the level itself), just above it, and far beyond the top.
		qs := []simtime.Duration{la.levels[0] / 2, la.levels[len(la.levels)-1] * 4}
		for _, lv := range la.levels {
			qs = append(qs, lv, lv+1)
		}
		for _, q := range qs {
			if checkClosure(t, la.partitionFor(q), ref.partitionFor(q)); t.Failed() {
				t.Fatalf("trial %d nodes=%d Q=%v", trial, nodes, q)
			}
		}
	}
}

// checkClosure holds one partitioning to want, and its engine-side views to
// it: the loose nodes, ascending, are the singletons, and each tight
// partition lists its members, by partition id.
func checkClosure(t *testing.T, p *partitioning, want *obs.Partitioning) {
	t.Helper()
	if !reflect.DeepEqual(p.Partitioning, *want) {
		t.Errorf("partitioned as %+v, want %+v", p.Partitioning, *want)
	}
	members := make([][]int32, want.Partitions)
	for i, id := range want.Part {
		members[id] = append(members[id], int32(i))
	}
	var loose []int32
	var tight [][]int32
	fast := make([]bool, len(want.Part))
	for _, m := range members {
		if len(m) > 1 {
			tight = append(tight, m)
		} else {
			loose, fast[m[0]] = append(loose, m[0]), true
		}
	}
	if !slices.Equal(p.loose, loose) || fmt.Sprint(p.tight) != fmt.Sprint(tight) || !slices.Equal(p.fastNode, fast) {
		t.Errorf("loose %v, tight %v, fastNode %v; want %v, %v, %v", p.loose, p.tight, p.fastNode, loose, tight, fast)
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
	// lat == Q is loose: intra+1 and inter are one band, and Q == min is fully loose.
	if mid := la.partitionFor(intra + 1); mid != la.partitionFor(inter) || mid.MaxTightLat != intra || len(mid.tight) != 2 || mid.Loose != 0 {
		t.Errorf("mid-band partitioning %+v, shared by its band: %v", mid, mid == la.partitionFor(inter))
	}
	if full := la.partitionFor(intra); full.Loose != 8 || full.Partitions != 8 || full.MaxTightLat != 0 {
		t.Errorf("fully loose partitioning: %+v", full)
	}
	if one := la.partitionFor(inter + 1); one.Partitions != 1 || one.Loose != 0 || one.MaxTightLat != inter {
		t.Errorf("fully tight partitioning: %+v", one)
	}
}

// TestLookaheadDegenerate: sub-2-node clusters and zero-lookahead topologies
// rule lookahead out — no bound, and every quantum the whole cluster as one
// tight partition.
func TestLookaheadDegenerate(t *testing.T) {
	zero := &netmodel.Model{NIC: &netmodel.SimpleNIC{BaseLatency: 0}, Switch: &netmodel.PerfectSwitch{}}
	for name, la := range map[string]*lookahead{
		"1-node cluster":        newLookahead(netmodel.Paper(), 1),
		"zero-latency topology": newLookahead(zero, 4),
	} {
		if la.min != 0 || len(la.levels) != 0 {
			t.Errorf("%s built a lookahead: min %v, levels %v", name, la.min, la.levels)
		}
		for _, q := range []simtime.Duration{1, simtime.Microsecond, simtime.Second} {
			p := la.partitionFor(q)
			if len(la.parts) != 1 || p != la.parts[0] || p.Loose != 0 || len(p.loose) != 0 || len(p.tight) != 1 || len(p.tight[0]) != la.n {
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

// A run whose lookahead is ruled out — a zero-latency link, a one-node
// cluster — executes every quantum as the whole cluster, is accounted no
// engagement, and tells the stream nothing about partitions.
func TestRuledOutLookaheadRun(t *testing.T) {
	for _, name := range []string{"zero-latency-4", "one-node"} {
		d := named(name)
		r, s := d.stream(), d.complete(t).Stats
		if s.FastFullQuanta+s.FastPartialQuanta+s.FastNodeQuanta+s.PartialPartitions != 0 || len(r.parts) != 0 {
			t.Fatalf("%s: engagement accounted without lookahead (%+v), or the stream names %d partitionings", name, s, len(r.parts))
		}
		la := newLookahead(r.cfg.Net, r.cfg.Nodes)
		for _, h := range r.ends {
			if p := la.partitionFor(h.Q); p.Loose != 0 || len(p.tight) != 1 || len(p.tight[0]) != r.cfg.Nodes {
				t.Fatalf("%s: quantum %d executes as %d loose nodes and tight partitions %v",
					name, h.Index, p.Loose, p.tight)
			}
		}
	}
}

// partitionsOf is the row's Run and the partitionings its stream published,
// one per quantum.
func partitionsOf(t *testing.T, name string) (*Result, []*obs.Partitioning) {
	t.Helper()
	d := named(name)
	res, parts := d.complete(t), d.stream().parts
	if len(parts) != res.Stats.Quanta {
		t.Fatalf("%d partitionings published for %d quanta", len(parts), res.Stats.Quanta)
	}
	return res, parts
}

// The partitioning must take the shape the quantum size calls for: every
// node loose at ground truth (Q = 1µs <= T), the whole cluster one tight
// partition beyond the largest latency, and an adaptive policy crosses the
// boundary both ways mid-run.
func TestPartitioningFollowsQuantum(t *testing.T) {
	const nodes = 4
	count := func(name string) (loose, tight int) {
		_, parts := partitionsOf(t, name)
		for _, p := range parts {
			switch {
			case p.Loose == nodes && p.Partitions == nodes:
				loose++
			case p.Loose == 0 && p.Partitions == 1 && p.TightPartitions == 1:
				tight++
			default:
				t.Errorf("uniform fabric: partitioning with %d loose nodes and %d tight partitions", p.Loose, p.TightPartitions)
			}
		}
		return
	}
	for _, c := range []struct {
		name         string
		loose, tight bool // whether some quanta are all-loose, and some one tight partition
	}{{"phases-4", true, false}, {"phases-100us-4", false, true}, {"phases-adaptive-4", true, true}} {
		if loose, tight := count(c.name); (loose > 0) != c.loose || (tight > 0) != c.tight {
			t.Errorf("%s: %d all-loose quanta and %d one-partition quanta, want some of each: %v, %v", c.name, loose, tight, c.loose, c.tight)
		}
	}
}

// On the mixed topology a quantum between the latency levels must be
// partitioned into one tight rack plus loose singletons — otherwise the
// differential's mixed rows pass vacuously on a whole-cluster walk — and the
// graded Stats accounting must say so.
func TestPartitionedPathEngagesPartially(t *testing.T) {
	res, parts := partitionsOf(t, "mixed-wan-8")
	s := res.Stats
	if s.FastPartialQuanta != s.Quanta || s.FastFullQuanta != 0 {
		t.Fatalf("Q=2µs mixed topology: want only partial engagement, got %+v", s)
	}
	// One tight 4-node rack + 4 loose WAN singletons, every quantum.
	if s.FastNodeQuanta != 4*s.FastPartialQuanta || s.PartialPartitions != 5*s.FastPartialQuanta {
		t.Errorf("FastNodeQuanta = %d, PartialPartitions = %d; want 4 and 5 per quantum of %d", s.FastNodeQuanta, s.PartialPartitions, s.FastPartialQuanta)
	}
	for _, p := range parts {
		if want := []int32{0, 0, 0, 0, 1, 2, 3, 4}; p.Loose != 4 || p.TightPartitions != 1 || !reflect.DeepEqual(p.Part, want) {
			t.Fatalf("partitioned as %+v, want the rack %v and four loose nodes", p, want)
		}
	}
}
