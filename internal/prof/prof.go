// Package prof is the sync-overhead attribution layer of the simulator: an
// optional per-quantum profiler that decomposes host time into per-node
// compute / idle / barrier-wait segments, attributes the controller's routing
// and barrier costs, tracks fast-path eligibility with a per-quantum disable
// cause, and keeps per-link slack accounting (frame latency minus the
// quantum — the lookahead headroom a per-link fast path would exploit).
//
// A nil *Profiler disables everything at zero cost: the engines guard every
// call site with a nil check, exactly like the obs.Observer hooks.
//
// Determinism contract: for the deterministic engine (cluster.Run) every
// value the profiler records is derived from simulated host/guest time, so
// the end-of-run Report is byte-identical across Workers settings and
// however a quantum is partitioned — a tight partition's event-queue walk and
// a loose node's direct walk feed the profiler the same numbers. The wall-clock parallel runner (cluster.RunParallel)
// feeds real elapsed time instead; its reports are measurements, not
// replayable artifacts, and say so via the Engine field.
//
// The per-quantum disable cause records *eligibility*, which is deterministic
// config+policy state: the output-queue tap (Net.Output) suppresses the fast
// path, a topology without a positive minimum latency yields no lookahead,
// and otherwise a quantum is eligible iff Q <= lookahead. Fault injection
// does NOT disengage the fast path.
package prof

import (
	"sort"
	"sync"

	"clustersim/internal/simtime"
)

// Cause classifies why a quantum was (in)eligible for the intra-quantum fast
// path.
type Cause int

const (
	// CauseEngaged marks an eligible quantum: Q <= lookahead with no tap.
	CauseEngaged Cause = iota
	// CauseQExceedsLookahead marks Q > lookahead: the policy grew the
	// quantum past the minimum network latency, so frames could arrive
	// inside the quantum.
	CauseQExceedsLookahead
	// CauseOutputTap marks a run with Net.Output set: the packet tap
	// observes frames in routing order, which the fast path reorders.
	CauseOutputTap
	// CauseNoLookahead marks a topology with no positive minimum latency
	// (zero-latency links admit same-instant cross-node causality).
	CauseNoLookahead
	// CausePartial marks a quantum with Q above the global minimum latency
	// but below some per-link bounds: the lookahead-closed partitioning
	// (DESIGN.md §11) leaves at least one loose node on the fast path while
	// tight partitions fall back to the event queue.
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
	case CauseOutputTap:
		return "output-queue-tap"
	case CauseNoLookahead:
		return "no-lookahead"
	case CausePartial:
		return "partially-engaged"
	}
	return "unknown"
}

// Grade describes one quantum's lookahead partition structure, computed by
// the engine from the per-link lookahead matrix. The zero value means the
// structure is unknown (scalar lookahead mode, a no-lookahead topology, or
// the output-queue tap) and engagement stays the scalar boolean.
type Grade struct {
	// Known is true when the engine derived a partitioning for the quantum.
	Known bool
	// Partitions is the total partition count (tight components plus loose
	// singletons); TightPartitions the multi-node components among them.
	Partitions      int
	TightPartitions int
	// FastNodes counts the loose singletons — the nodes the graded fast
	// path walks without the event queue.
	FastNodes int
	// MaxTightLat is the largest tight-link latency (the partitioning's
	// level); zero when the quantum is fully loose. The tight-link set is
	// exactly the links with latency <= MaxTightLat, so the value uniquely
	// identifies the partition structure.
	MaxTightLat simtime.Duration
	// TightLinks ranks the directed links binding partitions together,
	// ascending by latency, truncated; TightLinkCount is the full count.
	TightLinks     []LinkRef
	TightLinkCount int64
}

// Seg classifies a per-node host-time segment.
type Seg int

const (
	// SegBusy is detailed execution of workload/protocol code.
	SegBusy Seg = iota
	// SegIdle is the fast-forwarded simulation of a blocked guest. Idle
	// charges may be negative: a straggler that truncates or re-aims an
	// in-progress idle segment refunds part of a previous charge.
	SegIdle
)

// Metrics is the subset of obs.Registry the profiler uses for live export.
// Optional; nil disables live export.
type Metrics interface {
	SetGauge(name string, v int64)
	Add(name string, delta int64)
}

// RunMeta describes the run being profiled. Engines fill it in RunStart.
type RunMeta struct {
	// Engine is "deterministic" for cluster.Run and "parallel" for the
	// wall-clock runner.
	Engine string
	// Nodes is the simulated cluster size.
	Nodes int
	// Policy names the quantum policy driving the run.
	Policy string
	// Lookahead is the global fast-path lookahead: the minimum frame
	// latency over all node pairs, zero if none exists.
	Lookahead simtime.Duration
	// OutputQueue is true when the packet tap (Net.Output) is set, which
	// suppresses the fast path for every quantum.
	OutputQueue bool
	// LinkLat probes the static minimum frame latency of a directed link,
	// used to rank which links gate the global lookahead. May be nil.
	LinkLat func(src, dst int) simtime.Duration
}

// QuantumStats carries one completed quantum's controller-side attribution.
type QuantumStats struct {
	// Span is the quantum's full host extent: barrier release to barrier
	// release.
	Span simtime.Duration
	// Routing is the host time the controller spent routing frames
	// (Packets x PacketHostCost in the deterministic engine).
	Routing simtime.Duration
	// Barrier is the residual synchronization cost (BarrierCost in the
	// deterministic engine; first-arrival to release in the parallel
	// runner).
	Barrier simtime.Duration
	// Packets counts frames routed during the quantum.
	Packets int
	// Stragglers counts late frames among them.
	Stragglers int
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

// Profiler accumulates attribution for one run. Safe for concurrent use (the
// parallel runner feeds it from node goroutines); the deterministic engine
// pays one uncontended mutex per hook.
type Profiler struct {
	// LiveMetrics, when set before the run, receives coarse live values
	// (fast-path eligibility gauge, minimum observed slack) on top of what
	// obs.Registry already collects on its own.
	LiveMetrics Metrics

	mu   sync.Mutex
	meta RunMeta

	nodes []nodeAcc
	links map[[2]int]*linkAcc

	// current quantum state
	curQ     simtime.Duration
	curCause Cause
	curFast  int // fast-walkable nodes this quantum

	quanta      int64
	causes      [numCauses]int64
	engagedHost simtime.Duration // Span summed over fully eligible quanta
	partialHost simtime.Duration // Span summed over partially engaged quanta

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

	hQuantum  *Hist // Q per quantum (ns)
	hPackets  *Hist // frames per quantum
	hWait     *Hist // per-node barrier wait per quantum (ns)
	hLatency  *Hist // per-frame latency (ns)
	hSlack    *Hist // per-frame slack = latency - Q (ns, signed)
	hPartWait *Hist // per-partition barrier wait per quantum (ns)

	slackMin    simtime.Duration
	haveSlack   bool
	minLinks    []LinkRef // static links tied at the global minimum latency
	minLinksAll int64     // total ties before truncation

	guestEnd simtime.Guest
	hostEnd  simtime.Host
	ended    bool
}

// New returns an empty profiler. Pass it via cluster.Config.Profiler (or
// ParallelConfig.Profiler); the engine calls RunStart.
func New() *Profiler {
	return &Profiler{
		links:      make(map[[2]int]*linkAcc),
		partLevels: make(map[simtime.Duration]*partLevelAcc),
		hQuantum:   &Hist{},
		hPackets:   &Hist{},
		hWait:      &Hist{},
		hLatency:   &Hist{},
		hSlack:     &Hist{},
		hPartWait:  &Hist{},
	}
}

// partLevelAcc accumulates the quanta spent at one partition structure.
type partLevelAcc struct {
	grade  Grade
	quanta int64
}

// maxMinLatencyLinks bounds the MinLatencyLinks listing: a uniform fabric
// ties every pair at the minimum, and listing N*(N-1) identical links helps
// nobody. MinLatencyTied preserves the full count.
const maxMinLatencyLinks = 64

// RunStart records run metadata and probes the static per-link latency
// floor. Called once by the engine before the first quantum.
func (p *Profiler) RunStart(meta RunMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.meta = meta
	if len(p.nodes) < meta.Nodes {
		p.nodes = append(p.nodes, make([]nodeAcc, meta.Nodes-len(p.nodes))...)
	}
	p.probeMinLinksLocked()
	if p.LiveMetrics != nil {
		p.LiveMetrics.SetGauge("fastpath_lookahead_ns", int64(meta.Lookahead))
	}
}

// probeMinLinksLocked finds the directed links whose static latency ties the
// global minimum — the links that gate the global fast-path lookahead.
func (p *Profiler) probeMinLinksLocked() {
	p.minLinks = nil
	p.minLinksAll = 0
	if p.meta.LinkLat == nil || p.meta.Nodes < 2 {
		return
	}
	min := simtime.Duration(-1)
	for s := 0; s < p.meta.Nodes; s++ {
		for d := 0; d < p.meta.Nodes; d++ {
			if s == d {
				continue
			}
			lat := p.meta.LinkLat(s, d)
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

// BeginQuantum opens quantum accounting: it classifies fast-path eligibility
// for a quantum of size q, folds the quantum's partition grade into the
// graded-engagement accounting, and remembers q for slack computation.
func (p *Profiler) BeginQuantum(index int, q simtime.Duration, g Grade) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.curQ = q
	p.curFast = 0
	switch {
	case p.meta.OutputQueue:
		p.curCause = CauseOutputTap
	case p.meta.Lookahead <= 0:
		p.curCause = CauseNoLookahead
	case q <= p.meta.Lookahead:
		p.curCause = CauseEngaged
		p.curFast = p.meta.Nodes
	case g.Known && g.FastNodes > 0:
		p.curCause = CausePartial
		p.curFast = g.FastNodes
	default:
		p.curCause = CauseQExceedsLookahead
	}
	p.nodeQuanta += int64(p.meta.Nodes)
	p.fastNodeQuanta += int64(p.curFast)
	if g.Known {
		lv := p.partLevels[g.MaxTightLat]
		if lv == nil {
			lv = &partLevelAcc{grade: g}
			p.partLevels[g.MaxTightLat] = lv
		}
		lv.quanta++
	}
	if p.LiveMetrics != nil {
		var v int64
		if p.curCause == CauseEngaged {
			v = 1
		}
		p.LiveMetrics.SetGauge("fastpath_eligible", v)
		p.LiveMetrics.SetGauge("fastpath_fast_nodes", int64(p.curFast))
	}
}

// Segment charges host time d to node's busy or idle account. Idle charges
// may be negative (straggler truncation / re-aim refunds).
func (p *Profiler) Segment(node int, seg Seg, d simtime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if node < 0 || node >= len(p.nodes) {
		return
	}
	switch seg {
	case SegBusy:
		p.nodes[node].busy += d
		p.totCompute += d
	case SegIdle:
		p.nodes[node].idle += d
		p.totIdle += d
	}
}

// NodeWait charges node's barrier wait for the current quantum: the host
// time between the node finishing its quantum and the barrier releasing
// everyone (last arrival plus synchronization costs).
func (p *Profiler) NodeWait(node int, d simtime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d < 0 {
		d = 0
	}
	if node >= 0 && node < len(p.nodes) {
		p.nodes[node].wait += d
		p.totWait += d
	}
	p.hWait.Observe(int64(d))
}

// PartitionWait records the barrier wait of one lookahead partition for the
// current quantum: the host time between the partition's last member
// finishing and the global barrier releasing everyone. In the deterministic
// engine the value is derived from simulated time for every engine path, so
// it stays byte-identical across Workers settings; the parallel runner feeds
// real wall-clock waits.
func (p *Profiler) PartitionWait(d simtime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d < 0 {
		d = 0
	}
	p.hPartWait.Observe(int64(d))
}

// Frame records one routed frame on the directed link src->dst with the
// given ideal (pre-fault) latency. Slack is latency minus the current Q;
// negative slack means the frame could arrive within the quantum it was
// sent in — the link limits fast-path lookahead at this quantum size.
func (p *Profiler) Frame(src, dst int, lat simtime.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	slack := lat - p.curQ
	k := [2]int{src, dst}
	l := p.links[k]
	if l == nil {
		l = &linkAcc{latMin: lat, latMax: lat, slackMin: slack} //simlint:hotalloc once per link on first touch, and only when profiling is enabled
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
	if !p.haveSlack || slack < p.slackMin {
		p.haveSlack = true
		p.slackMin = slack
		if p.LiveMetrics != nil {
			p.LiveMetrics.SetGauge("prof_min_slack_ns", int64(slack))
		}
	}
}

// EndQuantum closes the quantum opened by BeginQuantum with the controller's
// attribution for it.
func (p *Profiler) EndQuantum(qs QuantumStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quanta++
	p.causes[p.curCause]++
	switch p.curCause {
	case CauseEngaged:
		p.engagedHost += qs.Span
	case CausePartial:
		p.partialHost += qs.Span
	}
	p.totRouting += qs.Routing
	p.totBarrier += qs.Barrier
	p.packets += int64(qs.Packets)
	p.stragglers += int64(qs.Stragglers)
	p.hQuantum.Observe(int64(p.curQ))
	p.hPackets.Observe(int64(qs.Packets))
}

// RunEnd records the final clocks. Aborted runs never reach it; Report
// still works on a partial profile.
func (p *Profiler) RunEnd(guest simtime.Guest, host simtime.Host) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.guestEnd = guest
	p.hostEnd = host
	p.ended = true
}

// limitingLinksK bounds the LimitingLinks ranking.
const limitingLinksK = 16

// Report assembles the canonical end-of-run report. Every field is integer
// nanoseconds or a count; slices are deterministically ordered, so for the
// deterministic engine the JSON encoding is byte-identical across worker
// counts and engine paths.
func (p *Profiler) Report() *Report {
	p.mu.Lock()
	defer p.mu.Unlock()

	r := &Report{
		Schema:      Schema,
		Engine:      p.meta.Engine,
		Nodes:       p.meta.Nodes,
		Policy:      p.meta.Policy,
		LookaheadNS: int64(p.meta.Lookahead),
		OutputQueue: p.meta.OutputQueue,
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
		if p.meta.LinkLat != nil {
			lp.StaticLatNS = int64(p.meta.LinkLat(k[0], k[1]))
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
		r.Partitions = append(r.Partitions, PartitionLevel{
			MaxTightLatNS:   int64(k),
			Partitions:      lv.grade.Partitions,
			TightPartitions: lv.grade.TightPartitions,
			FastNodes:       lv.grade.FastNodes,
			Quanta:          lv.quanta,
			TightLinks:      append([]LinkRef(nil), lv.grade.TightLinks...),
			TightLinkCount:  lv.grade.TightLinkCount,
		})
	}

	r.Hists = []NamedHist{
		{Name: "quantum_ns", Hist: p.hQuantum.Snapshot()},
		{Name: "packets_per_quantum", Hist: p.hPackets.Snapshot()},
		{Name: "node_wait_ns", Hist: p.hWait.Snapshot()},
		{Name: "frame_latency_ns", Hist: p.hLatency.Snapshot()},
		{Name: "frame_slack_ns", Hist: p.hSlack.Snapshot()},
		{Name: "partition_wait_ns", Hist: p.hPartWait.Snapshot()},
	}
	return r
}
