// Package prof is the sync-overhead attribution layer of the simulator: an
// optional per-quantum profiler that decomposes host time into per-node
// compute / idle / barrier-wait segments, attributes the controller's routing
// and barrier costs, classifies how much of each quantum its lookahead
// partitioning leaves loose, and keeps per-link slack accounting (frame
// latency minus the quantum — the lookahead headroom of the link).
//
// The Profiler is a sink on the obs.Observer stream and has no other input:
// compute and idle are the extents of NodePhase, a node's barrier wait runs
// from the end of its last phase in the quantum to the release QuantumEnd
// reports, routing and barrier split that record's synchronization span, the
// per-link accounting reads Packet, and a quantum's engagement cause is read
// off the QuantumPartition it was handed (DESIGN.md §7).
//
// Determinism contract: for the deterministic engine (cluster.Run) the stream
// carries simulated host/guest time only, so the end-of-run Report is
// byte-identical however a quantum is partitioned. The wall-clock parallel runner (cluster.RunParallel) streams
// real elapsed time instead; its reports are measurements, not replayable
// artifacts, and say so via the Engine field.
//
// The per-quantum cause is a function of the configuration and the quantum
// size alone: a quantum without a partitioning is one whose lookahead is
// ruled out (by a one-node cluster or a topology without a positive minimum
// latency), and otherwise the partitioning's loose-node count decides. Fault
// injection does not change it.
package prof

import (
	"sort"
	"sync"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// Cause classifies how much of a quantum its lookahead partitioning left
// loose, or why the quantum had none.
type Cause int

const (
	// CauseEngaged marks a quantum whose partitioning leaves every node
	// loose: Q is at or below the minimum network latency.
	CauseEngaged Cause = iota
	// CauseQExceedsLookahead marks a quantum whose partitioning leaves no
	// node loose: the policy grew the quantum past every node's nearest
	// link, so frames could arrive inside the quantum anywhere.
	CauseQExceedsLookahead
	// CauseNoLookahead marks a topology with no positive minimum latency
	// (zero-latency links admit same-instant cross-node causality) or a
	// one-node cluster.
	CauseNoLookahead
	// CausePartial marks a quantum whose lookahead-closed partitioning
	// (DESIGN.md §2.1) leaves some nodes loose while tight partitions walk
	// the event queue.
	CausePartial

	numCauses
)

// String returns the stable cause label used in reports.
func (c Cause) String() string {
	switch c {
	case CauseEngaged:
		return "engaged"
	case CauseQExceedsLookahead:
		return "q-exceeds-lookahead"
	case CauseNoLookahead:
		return "no-lookahead"
	case CausePartial:
		return "partially-engaged"
	}
	return "unknown"
}

// nodeAcc accumulates one node's host-time decomposition.
type nodeAcc struct {
	busy simtime.Duration
	idle simtime.Duration
	wait simtime.Duration
}

// linkAcc accumulates one directed link's latency/slack observations.
type linkAcc struct {
	frames    int64
	latSum    simtime.Duration
	latMin    simtime.Duration
	latMax    simtime.Duration
	slackMin  simtime.Duration
	negFrames int64 // frames with negative slack (latency < Q at send time)
}

// Profiler accumulates attribution for one run. It is an obs.Observer and
// nothing else: every number in its Report is computed from the hook stream,
// so a recorded stream replayed into a fresh Profiler reproduces the report
// byte for byte. Safe for concurrent use (the parallel runner fires NodePhase
// from node goroutines); the deterministic engine pays one uncontended mutex
// per hook.
type Profiler struct {
	mu   sync.Mutex
	info obs.RunInfo
	// engine names the runner in the report; empty until RunStart.
	engine string

	nodes []nodeAcc
	links map[[2]int]*linkAcc

	// Current quantum: its size, its lookahead partitioning (nil without a
	// matrix) and, per node, the host time its last phase ended — the quantum
	// start for a node that has had none. partFin is QuantumEnd's scratch.
	curQ    simtime.Duration
	curPart *obs.Partitioning
	lastEnd []simtime.Host
	partFin []simtime.Host

	quanta      int64
	causes      [numCauses]int64
	engagedHost simtime.Duration // span summed over fully eligible quanta
	partialHost simtime.Duration // span summed over partially engaged quanta

	// Graded (node-level) engagement: fastNodeQuanta sums the fast-walkable
	// node count over quanta, nodeQuanta the cluster size over quanta.
	fastNodeQuanta int64
	nodeQuanta     int64

	// partLevels accumulates quanta per partition structure, keyed by the
	// structure's level (its largest tight-link latency).
	partLevels map[simtime.Duration]*partLevelAcc

	totCompute simtime.Duration
	totIdle    simtime.Duration
	totWait    simtime.Duration
	totRouting simtime.Duration
	totBarrier simtime.Duration

	packets    int64
	stragglers int64

	hQuantum  obs.Histogram // Q per quantum (ns)
	hPackets  obs.Histogram // frames per quantum
	hWait     obs.Histogram // per-node barrier wait per quantum (ns)
	hLatency  obs.Histogram // per-frame latency (ns)
	hSlack    obs.Histogram // per-frame slack = latency - Q (ns, signed)
	hPartWait obs.Histogram // per-partition barrier wait per quantum (ns)

	minLinks    []LinkRef // static links tied at the global minimum latency
	minLinksAll int64     // total ties before truncation

	guestEnd simtime.Guest
	hostEnd  simtime.Host
	ended    bool
}

// New returns an empty profiler: attach it as (one sink of)
// cluster.Config.Observer, or anywhere else an obs.Observer goes.
func New() *Profiler {
	return &Profiler{
		links:      make(map[[2]int]*linkAcc),
		partLevels: make(map[simtime.Duration]*partLevelAcc),
	}
}

// partLevelAcc accumulates the quanta spent at one partition structure.
type partLevelAcc struct {
	part   *obs.Partitioning
	quanta int64
}

// maxMinLatencyLinks bounds the MinLatencyLinks listing: a uniform fabric
// ties every pair at the minimum, and listing N*(N-1) identical links helps
// nobody. MinLatencyTied preserves the full count.
const maxMinLatencyLinks = 64

// RunStart implements obs.Observer: it records the run's static facts and
// probes the per-link latency floor.
func (p *Profiler) RunStart(info obs.RunInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.info = info
	p.engine = "deterministic"
	if info.Parallel {
		p.engine = "parallel"
	}
	if len(p.nodes) < info.Nodes {
		p.nodes = append(p.nodes, make([]nodeAcc, info.Nodes-len(p.nodes))...)
	}
	p.lastEnd = make([]simtime.Host, len(p.nodes))
	p.probeMinLinksLocked()
}

// probeMinLinksLocked finds the directed links whose static latency ties the
// global minimum — the links that gate the global fast-path lookahead.
func (p *Profiler) probeMinLinksLocked() {
	p.minLinks = nil
	p.minLinksAll = 0
	if p.info.LinkLat == nil || p.info.Nodes < 2 {
		return
	}
	min := simtime.Duration(-1)
	for s := 0; s < p.info.Nodes; s++ {
		for d := 0; d < p.info.Nodes; d++ {
			if s == d {
				continue
			}
			lat := p.info.LinkLat(s, d)
			if lat <= 0 {
				continue
			}
			switch {
			case min < 0 || lat < min:
				min = lat
				p.minLinks = p.minLinks[:0]
				p.minLinksAll = 1
				p.minLinks = append(p.minLinks, LinkRef{Src: s, Dst: d, LatencyNS: int64(lat)})
			case lat == min:
				p.minLinksAll++
				if len(p.minLinks) < maxMinLatencyLinks {
					p.minLinks = append(p.minLinks, LinkRef{Src: s, Dst: d, LatencyNS: int64(lat)})
				}
			}
		}
	}
}

// QuantumStart implements obs.Observer: it remembers q, which frame slack is
// measured against, and starts every node's wait clock at the release.
func (p *Profiler) QuantumStart(_ int, _ simtime.Guest, q simtime.Duration, hostStart simtime.Host) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.curQ = q
	p.curPart = nil
	for i := range p.lastEnd {
		p.lastEnd[i] = hostStart
	}
}

// QuantumPartition implements obs.Observer.
func (p *Profiler) QuantumPartition(_ int, part *obs.Partitioning) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.curPart = part
}

// NodePhase implements obs.Observer: the extent of a busy or idle phase is
// the host time charged to it (an idle segment a straggler cut short or a
// delivery re-aimed is reported once, at its final extent), and its end is
// where the node's barrier wait starts unless a later phase follows.
func (p *Profiler) NodePhase(node int, phase obs.Phase, _, _ simtime.Guest, hFrom, hTo simtime.Host) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if node < 0 || node >= len(p.nodes) {
		return
	}
	d := hTo.Sub(hFrom)
	switch phase {
	case obs.PhaseBusy:
		p.nodes[node].busy += d
		p.totCompute += d
	case obs.PhaseIdle:
		p.nodes[node].idle += d
		p.totIdle += d
	}
	p.lastEnd[node] = hTo
}

// Packet implements obs.Observer: one observation per routed frame (an
// injected duplicate is the same frame again) on the directed link src->dst.
// Slack is the pre-fault latency minus the current Q; negative slack means
// the frame could arrive within the quantum it was sent in — the link limits
// fast-path lookahead at this quantum size.
func (p *Profiler) Packet(rec obs.PacketRecord) {
	if rec.Duplicate {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	lat := rec.Latency
	slack := lat - p.curQ
	k := [2]int{rec.Src, rec.Dst}
	l := p.links[k]
	if l == nil {
		l = &linkAcc{latMin: lat, latMax: lat, slackMin: slack} // once per link on first touch, and only when profiling is enabled
		p.links[k] = l
	}
	l.frames++
	l.latSum += lat
	if lat < l.latMin {
		l.latMin = lat
	}
	if lat > l.latMax {
		l.latMax = lat
	}
	if slack < l.slackMin {
		l.slackMin = slack
	}
	if slack < 0 {
		l.negFrames++
	}
	p.hLatency.Observe(int64(lat))
	p.hSlack.Observe(int64(slack))
}

// QuantumEnd implements obs.Observer. It classifies the quantum by the
// partitioning it was handed, charges every node and every lookahead
// partition its barrier wait — the release minus the end of its last phase,
// or of its last member's — and splits the barrier span into routing and the
// barrier itself. The release is BarrierStart in the deterministic engine (the
// shared routing and barrier costs are attributed once, not per node) and
// HostEnd in the parallel runner, whose BarrierStart is the first arrival.
func (p *Profiler) QuantumEnd(rec obs.QuantumRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()

	// Both runners publish a partitioning for every quantum whose lookahead
	// is not ruled out.
	cause, fast := CauseQExceedsLookahead, 0
	switch part := p.curPart; {
	case part == nil:
		cause = CauseNoLookahead
	case part.FastNodes == p.info.Nodes:
		cause, fast = CauseEngaged, part.FastNodes
	case part.FastNodes > 0:
		cause, fast = CausePartial, part.FastNodes
	}
	p.quanta++
	p.causes[cause]++
	p.nodeQuanta += int64(p.info.Nodes)
	p.fastNodeQuanta += int64(fast)
	switch span := rec.HostEnd.Sub(rec.HostStart); cause {
	case CauseEngaged:
		p.engagedHost += span
	case CausePartial:
		p.partialHost += span
	}
	if part := p.curPart; part != nil {
		lv := p.partLevels[part.MaxTightLat]
		if lv == nil {
			lv = &partLevelAcc{part: part}
			p.partLevels[part.MaxTightLat] = lv
		}
		lv.quanta++
	}

	release := rec.BarrierStart
	if p.info.Parallel {
		release = rec.HostEnd
	}
	// Without a partitioning the whole cluster is one partition.
	fin := p.partFin[:0]
	for i, end := range p.lastEnd {
		w := release.Sub(end)
		p.nodes[i].wait += w
		p.totWait += w
		p.hWait.Observe(int64(w))
		pid := 0
		if p.curPart != nil {
			pid = int(p.curPart.Part[i])
		}
		if pid == len(fin) { // ids number the partitions by smallest member
			fin = append(fin, end)
		}
		fin[pid] = simtime.MaxHost(fin[pid], end)
	}
	for _, f := range fin {
		p.hPartWait.Observe(int64(release.Sub(f)))
	}
	p.partFin = fin

	p.totRouting += rec.Routing
	p.totBarrier += rec.HostEnd.Sub(rec.BarrierStart) - rec.Routing
	p.packets += int64(rec.Packets)
	p.stragglers += int64(rec.Stragglers)
	p.hQuantum.Observe(int64(rec.Q))
	p.hPackets.Observe(int64(rec.Packets))
	// Until RunEnd says where the run ended, a report read mid-run gives the
	// last quantum's end as its guest and host times: how far the run got.
	p.guestEnd, p.hostEnd = rec.Start.Add(rec.Q), rec.HostEnd
}

// RunEnd implements obs.Observer. An aborted run leaves the profile partial —
// Report still works on it and says so (Complete false).
func (p *Profiler) RunEnd(sum obs.RunSummary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.guestEnd = sum.GuestTime
	p.hostEnd = sum.HostEnd
	p.ended = sum.Err == nil
}

// limitingLinksK bounds the LimitingLinks ranking.
const limitingLinksK = 16

// Report assembles the canonical end-of-run report. Every field is integer
// nanoseconds or a count; slices are deterministically ordered, so for the
// deterministic engine the JSON encoding is byte-identical across engine
// paths.
func (p *Profiler) Report() *Report {
	p.mu.Lock()
	defer p.mu.Unlock()

	r := &Report{
		Schema:      Schema,
		Engine:      p.engine,
		Nodes:       p.info.Nodes,
		Policy:      p.info.Policy,
		LookaheadNS: int64(p.info.Lookahead),
		Complete:    p.ended,
		GuestNS:     int64(p.guestEnd),
		HostNS:      int64(p.hostEnd),
		Quanta:      p.quanta,
		Packets:     p.packets,
		Stragglers:  p.stragglers,
	}

	r.Engagement.EligibleQuanta = p.causes[CauseEngaged]
	r.Engagement.EligibleHostNS = int64(p.engagedHost)
	r.Engagement.PartialQuanta = p.causes[CausePartial]
	r.Engagement.PartialHostNS = int64(p.partialHost)
	r.Engagement.FastNodeQuanta = p.fastNodeQuanta
	r.Engagement.NodeQuanta = p.nodeQuanta
	for c := Cause(0); c < numCauses; c++ {
		if p.causes[c] == 0 {
			continue
		}
		r.Engagement.Causes = append(r.Engagement.Causes, CauseCount{Cause: c.String(), Quanta: p.causes[c]})
	}
	sort.Slice(r.Engagement.Causes, func(i, j int) bool {
		return r.Engagement.Causes[i].Cause < r.Engagement.Causes[j].Cause
	})

	r.Totals = Totals{
		ComputeNS: int64(p.totCompute),
		IdleNS:    int64(p.totIdle),
		WaitNS:    int64(p.totWait),
		RoutingNS: int64(p.totRouting),
		BarrierNS: int64(p.totBarrier),
	}

	for i, n := range p.nodes {
		r.PerNode = append(r.PerNode, NodeProfile{
			Node:      i,
			ComputeNS: int64(n.busy),
			IdleNS:    int64(n.idle),
			WaitNS:    int64(n.wait),
		})
	}

	keys := make([][2]int, 0, len(p.links))
	for k := range p.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		l := p.links[k]
		lp := LinkProfile{
			Src:            k[0],
			Dst:            k[1],
			Frames:         l.frames,
			LatencyMinNS:   int64(l.latMin),
			LatencyMaxNS:   int64(l.latMax),
			LatencySumNS:   int64(l.latSum),
			SlackMinNS:     int64(l.slackMin),
			NegSlackFrames: l.negFrames,
		}
		if p.info.LinkLat != nil {
			lp.StaticLatNS = int64(p.info.LinkLat(k[0], k[1]))
		}
		r.Links = append(r.Links, lp)
	}

	// LimitingLinks: the observed links with the least slack headroom —
	// the ones a per-link fast path would have to treat most carefully.
	limit := append([]LinkProfile(nil), r.Links...)
	sort.Slice(limit, func(i, j int) bool {
		if limit[i].SlackMinNS != limit[j].SlackMinNS {
			return limit[i].SlackMinNS < limit[j].SlackMinNS
		}
		if limit[i].Src != limit[j].Src {
			return limit[i].Src < limit[j].Src
		}
		return limit[i].Dst < limit[j].Dst
	})
	if len(limit) > limitingLinksK {
		limit = limit[:limitingLinksK]
	}
	for _, l := range limit {
		r.LimitingLinks = append(r.LimitingLinks, LinkRef{
			Src:       l.Src,
			Dst:       l.Dst,
			LatencyNS: l.LatencyMinNS,
			SlackNS:   l.SlackMinNS,
			Frames:    l.Frames,
		})
	}

	r.MinLatencyLinks = append([]LinkRef(nil), p.minLinks...)
	r.MinLatencyTied = p.minLinksAll

	// Partition-structure table, one row per observed lookahead level,
	// ascending (fully loose first, whole-cluster-tight last).
	lvls := make([]simtime.Duration, 0, len(p.partLevels))
	for k := range p.partLevels {
		lvls = append(lvls, k)
	}
	sort.Slice(lvls, func(i, j int) bool { return lvls[i] < lvls[j] })
	for _, k := range lvls {
		lv := p.partLevels[k]
		row := PartitionLevel{
			MaxTightLatNS:   int64(k),
			Partitions:      lv.part.Partitions,
			TightPartitions: lv.part.TightPartitions,
			FastNodes:       lv.part.FastNodes,
			Quanta:          lv.quanta,
			TightLinkCount:  lv.part.TightLinkCount,
		}
		for _, l := range lv.part.TightLinks {
			row.TightLinks = append(row.TightLinks, LinkRef{Src: l.Src, Dst: l.Dst, LatencyNS: int64(l.Latency)})
		}
		r.Partitions = append(r.Partitions, row)
	}

	r.Hists = []NamedHist{
		{Name: "quantum_ns", Hist: histData(&p.hQuantum)},
		{Name: "packets_per_quantum", Hist: histData(&p.hPackets)},
		{Name: "node_wait_ns", Hist: histData(&p.hWait)},
		{Name: "frame_latency_ns", Hist: histData(&p.hLatency)},
		{Name: "frame_slack_ns", Hist: histData(&p.hSlack)},
		{Name: "partition_wait_ns", Hist: histData(&p.hPartWait)},
	}
	return r
}
