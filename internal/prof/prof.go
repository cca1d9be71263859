// Package prof is the sync-overhead attribution layer of the simulator: an
// optional per-quantum profiler that decomposes host time into per-node
// compute / idle / barrier-wait segments, attributes the controller's routing
// and barrier costs, tabulates the lookahead partitionings the quanta ran at,
// and keeps per-link slack accounting (frame latency minus the quantum — the
// lookahead headroom of the link).
//
// The Profiler is a sink on the obs.Observer stream and has no other input:
// compute and idle are the extents of NodePhase, a node's barrier wait runs
// from the end of its last phase in the quantum to the release QuantumEnd
// reports, routing and barrier split that record's synchronization span, the
// per-link accounting reads Packet, and a quantum's row of the partition
// table is the QuantumPartition it was handed (DESIGN.md §7).
//
// Determinism contract: for the deterministic engine (cluster.Run) the stream
// carries simulated host/guest time only, so the end-of-run Report is
// byte-identical however a quantum is partitioned. The wall-clock parallel runner (cluster.RunParallel) streams
// real elapsed time instead; its reports are measurements, not replayable
// artifacts, and say so via the Engine field.
//
// The partition table is the report's one statement of engagement, and a
// function of the configuration and the quantum sizes alone: a quantum
// without a partitioning — and so without a row — is one whose lookahead is
// ruled out (by a one-node cluster or a topology without a positive minimum
// latency), and otherwise its row's loose-node count says how much of the
// cluster it left loose. Fault injection does not change it.
package prof

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

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

	quanta int64
	// levels is the partition table as it accumulates: one row per partition
	// structure, keyed by its level (its largest tight-link latency).
	levels map[simtime.Duration]*PartitionLevel

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

	minLinks    []LinkRef // static links tied at Lookahead, ranked
	minLinksAll int64     // their full count

	guestEnd simtime.Guest
	hostEnd  simtime.Host
	ended    bool
}

// New returns an empty profiler: attach it as (one sink of)
// cluster.Config.Observer, or anywhere else an obs.Observer goes.
func New() *Profiler {
	return &Profiler{
		links:  make(map[[2]int]*linkAcc),
		levels: make(map[simtime.Duration]*PartitionLevel),
	}
}

// maxRankedLinks caps every link ranking in a report: a uniform fabric ties
// every pair, and listing N*(N-1) identical links helps nobody. Each ranking
// keeps its full count beside it.
const maxRankedLinks = 16

// rankLinks ranks the run's directed links whose static latency is at most
// max, ascending by latency then (src, dst): the first maxRankedLinks of
// them, and how many there are. Callers hold p.mu.
func (p *Profiler) rankLinks(max simtime.Duration) (top []LinkRef, count int64) {
	if p.info.LinkLat == nil || max <= 0 {
		return nil, 0
	}
	for s := 0; s < p.info.Nodes; s++ {
		for d := 0; d < p.info.Nodes; d++ {
			if lat := p.info.LinkLat(s, d); s != d && lat <= max {
				top = append(top, LinkRef{Src: s, Dst: d, LatencyNS: int64(lat)})
			}
		}
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].LatencyNS < top[j].LatencyNS })
	return slices.Clone(top[:min(len(top), maxRankedLinks)]), int64(len(top))
}

// RunStart implements obs.Observer: it records the run's static facts and
// ranks the links tied at the lookahead, the ones that gate it.
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
	p.minLinks, p.minLinksAll = p.rankLinks(info.Lookahead)
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
// the frame could arrive within the quantum it was sent in — the link is
// tight at this quantum size.
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

// QuantumEnd implements obs.Observer. It counts the quantum in the row of the
// partitioning it was handed, charges every node and every lookahead
// partition its barrier wait — the release minus the end of its last phase,
// or of its last member's — and splits the barrier span into routing and the
// barrier itself. The release is BarrierStart in the deterministic engine (the
// shared routing and barrier costs are attributed once, not per node) and
// HostEnd in the parallel runner, whose BarrierStart is the first arrival.
func (p *Profiler) QuantumEnd(rec obs.QuantumRecord) {
	p.mu.Lock()
	defer p.mu.Unlock()

	p.quanta++
	// A quantum's row is the level of its partitioning; one without a
	// partitioning ran with lookahead ruled out and has none.
	if part := p.curPart; part != nil {
		lv := p.levels[part.MaxTightLat]
		if lv == nil {
			lv = &PartitionLevel{MaxTightLatNS: int64(part.MaxTightLat),
				Partitions: part.Partitions, TightPartitions: part.TightPartitions, Loose: part.Loose}
			lv.TightLinks, lv.TightLinkCount = p.rankLinks(part.MaxTightLat)
			p.levels[part.MaxTightLat] = lv
		}
		lv.Quanta++
		lv.HostNS += int64(rec.HostEnd.Sub(rec.HostStart))
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

	r.MinLatencyLinks = p.minLinks
	r.MinLatencyTied = p.minLinksAll

	// The partition table, one row per observed lookahead level, ascending
	// (fully loose first, whole-cluster-tight last). A row's link ranking is
	// never written after the row is made, so the report may share it.
	for _, k := range slices.Sorted(maps.Keys(p.levels)) {
		r.Partitions = append(r.Partitions, *p.levels[k])
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
