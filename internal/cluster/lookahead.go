package cluster

import (
	"sort"

	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// lookahead is the per-link generalization of the paper's scalar safety
// bound T (DESIGN.md §11): a node-pair lower-bound latency matrix probed
// once per run, plus the lookahead-closed partitionings it induces at each
// quantum size.
//
// For a quantum Q, a directed link is "tight" when its lower-bound latency
// is below Q — a frame on it could arrive inside the quantum — and "loose"
// otherwise. Nodes joined (in either direction) by a tight link must
// synchronize through the event queue; nodes in different components of the
// tight-link graph are provably non-interacting before the barrier, because
// every frame between them arrives at or after the quantum limit. Components
// of that graph are the quantum's partitions, the engine's unit of execution:
// a singleton is stepped straight to the limit, a multi-node (tight)
// partition walks through the event queue.
//
// The partition structure only changes when Q crosses one of the matrix's
// distinct latency values, so partitionings are cached per level and shared
// by every quantum in the same band.
//
// A configuration that rules lookahead out has no matrix, no levels and a
// zero min: its one band holds the whole cluster as one tight partition.
type lookahead struct {
	n   int
	lat []simtime.Duration // flat n×n row-major probe matrix; diagonal 0
	min simtime.Duration   // smallest off-diagonal entry (the paper's scalar T)
	// levels holds the distinct positive off-diagonal latencies, ascending.
	// A quantum with Q <= levels[0] has no tight links (fully fast); one
	// with Q > levels[len-1] ties the whole cluster into one partition.
	levels []simtime.Duration
	// parts caches one partitioning per level band, indexed by the number
	// of levels strictly below Q. Entries are built lazily.
	parts []*partitioning
	// whole is the whole cluster as one tight partition, built on first use.
	whole *partitioning
}

// partitioning is the lookahead closure of the cluster at one tight-link
// set: the connected components of the links with latency below Q.
type partitioning struct {
	// The structure as the observer stream publishes it: the node->partition
	// map, the counts, the level and the tight-link ranking.
	obs.Partitioning
	// fastNode marks the loose singletons — nodes with no tight link in
	// either direction.
	fastNode []bool
	// loose lists them, ascending.
	loose []int32
	// tight lists each multi-node partition's members (ascending), ordered
	// by partition id.
	tight [][]int32
}

// tightLinksK bounds the per-partitioning tight-link ranking, mirroring the
// profiler's limiting-links cap.
const tightLinksK = 16

// newLookahead probes the matrix for the given model: every pair with the
// cheapest possible frame (netmodel.MinProbe), generalizing the paper's
// scalar T. Three things rule lookahead out. Switch output-port contention,
// before the probe: the port-free state must be updated in the exact order the
// controller observes frames, which only one event queue over the whole
// cluster reproduces. A cluster of one node, which has no link to probe. And
// a pair with a non-positive lower bound, which makes same-instant cross-node
// causality possible.
func newLookahead(m *netmodel.Model, nodes int) *lookahead {
	if nodes < 2 || m.Output != nil {
		return noLookahead(nodes)
	}
	la := &lookahead{n: nodes, lat: m.LookaheadMatrix(nodes)}
	seen := make(map[simtime.Duration]bool, 2)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			l := la.lat[s*nodes+d]
			if l <= 0 {
				return noLookahead(nodes)
			}
			if la.min == 0 || l < la.min {
				la.min = l
			}
			if !seen[l] {
				seen[l] = true
				la.levels = append(la.levels, l)
			}
		}
	}
	sort.Slice(la.levels, func(i, j int) bool { return la.levels[i] < la.levels[j] })
	la.parts = make([]*partitioning, len(la.levels)+1)
	return la
}

// noLookahead is the lookahead of a configuration that rules lookahead out:
// whatever the quantum size, the whole cluster walks through one event queue.
func noLookahead(nodes int) *lookahead {
	la := &lookahead{n: nodes}
	la.parts = []*partitioning{la.wholeCluster()}
	return la
}

// partitionFor returns the (cached) partitioning for quantum size q.
func (la *lookahead) partitionFor(q simtime.Duration) *partitioning {
	// Index = number of distinct latencies strictly below q = first index
	// with levels[i] >= q.
	idx := sort.Search(len(la.levels), func(i int) bool { return la.levels[i] >= q })
	if p := la.parts[idx]; p != nil {
		return p
	}
	p := la.build(idx)
	la.parts[idx] = p
	return p
}

// build constructs the partitioning whose tight links are the idx smallest
// latency levels.
func (la *lookahead) build(idx int) *partitioning {
	n := la.n
	p := &partitioning{fastNode: make([]bool, n)}
	p.Part = make([]int32, n)
	if idx > 0 {
		p.MaxTightLat = la.levels[idx-1]
	}

	// Union-find over the undirected tight-link graph.
	root := make([]int32, n)
	for i := range root {
		root[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]] // path halving
			x = root[x]
		}
		return x
	}
	for s := 0; s < n; s++ {
		for d := s + 1; d < n; d++ {
			if la.lat[s*n+d] > p.MaxTightLat && la.lat[d*n+s] > p.MaxTightLat {
				continue
			}
			rs, rd := find(int32(s)), find(int32(d))
			if rs != rd {
				// Smaller root wins, so every root is its component's
				// smallest member.
				if rd < rs {
					rs, rd = rd, rs
				}
				root[rd] = rs
			}
		}
	}

	// Dense canonical partition ids by smallest member, plus member lists.
	id := make(map[int32]int32, n)
	members := make([][]int32, 0, n)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		pid, ok := id[r]
		if !ok {
			pid = int32(len(members))
			id[r] = pid
			members = append(members, nil)
		}
		p.Part[i] = pid
		members[pid] = append(members[pid], int32(i))
	}
	for _, m := range members {
		if len(m) == 1 {
			p.fastNode[m[0]] = true
			p.loose = append(p.loose, m[0])
		} else {
			p.tight = append(p.tight, m)
		}
	}
	p.Partitions, p.TightPartitions, p.FastNodes = len(members), len(p.tight), len(p.loose)

	// Rank the directed tight links, ascending by latency then (src, dst).
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d || la.lat[s*n+d] > p.MaxTightLat {
				continue
			}
			p.TightLinks = append(p.TightLinks, obs.Link{Src: s, Dst: d, Latency: la.lat[s*n+d]})
		}
	}
	p.TightLinkCount = int64(len(p.TightLinks))
	sort.Slice(p.TightLinks, func(i, j int) bool {
		a, b := p.TightLinks[i], p.TightLinks[j]
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	if len(p.TightLinks) > tightLinksK {
		p.TightLinks = p.TightLinks[:tightLinksK]
	}
	return p
}

// wholeCluster returns the partitioning that ties every node into one tight
// partition — what partitionFor yields above the largest latency level. It is
// built without the matrix: it executes the configurations that have none, and
// it is the reference the differential tests hold every other partitioning to.
func (la *lookahead) wholeCluster() *partitioning {
	if la.whole == nil {
		all := make([]int32, la.n)
		for i := range all {
			all[i] = int32(i)
		}
		p := &partitioning{fastNode: make([]bool, la.n), tight: [][]int32{all}}
		p.Part = make([]int32, la.n)
		p.Partitions, p.TightPartitions = 1, 1
		la.whole = p
	}
	return la.whole
}
