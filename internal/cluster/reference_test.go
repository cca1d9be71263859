package cluster

import (
	"fmt"
	"math"

	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// This file is the reference engine TestDifferential holds Run to: the
// simplest engine that could be right. It keeps one host-time event list over
// the whole cluster — a plain slice — and always processes its earliest event:
// the shared-clock loop of a textbook discrete-event simulator. There is no
// partitioning, no quiet pass, no stretch, no deferral and no arena: every node
// is stepped through every quantum, every frame is routed the moment it
// reaches the controller, and the paper's rules — the three-case delivery
// rule, the idle wake a delivery cuts short or re-aims, the barrier, the
// lookahead engagement counters — are restated here in their own code. What
// it shares with Run is what both simulate: guest.Node, host.Model, the
// netmodel, faults.Plan and the quantum policy.

// Event priorities at one host instant: a frame reaches the controller before
// an idle node wakes, and a wake comes before a busy node resumes, so a
// delivery racing a segment end is seen by the node that resumes.
const (
	refPriFrame = iota
	refPriWake
	refPriStep
)

type refEvent struct {
	h        simtime.Host
	pri, seq int // seq is the push order, the last tie-break
	node     int // a wake's or a step's node
	fl       *refFlight
}

// refFlight is one frame on its way from src to dst, a copy of its own.
type refFlight struct {
	f         pkt.Frame
	src, dst  int
	sent, due simtime.Guest // when the workload sent it; its arrival before faults
}

// refNode is one node simulator: its guest node and the host-time segment —
// busy execution or idle wait — it is in, if any.
type refNode struct {
	g         *guest.Node
	inSeg     bool
	mode      host.Mode
	g0, g1    simtime.Guest
	h0, h1    simtime.Host
	wake      int     // the seq of its pending wake; an older one is stale
	slow      float64 // the fault plan's host slowdown factor, 0 for none
	atBarrier bool

	txFree          simtime.Guest // when its NIC's transmitter frees up
	barrierH, doneH simtime.Host  // when it reached this barrier; when its workload finished
}

type refEngine struct {
	cfg    Config
	obs    obs.Observer
	hm     *host.Model
	nodes  []*refNode
	events []refEvent
	seq    int

	// The lookahead: the link lower-bound matrix, its smallest entry T (zero
	// when a one-node cluster or a non-positive link rules lookahead out), and
	// the partitioning each quantum size induces.
	lat   []simtime.Duration
	T     simtime.Duration
	parts map[simtime.Duration]*obs.Partitioning

	limit    simtime.Guest
	lastH    simtime.Host // latest host time a frame reached the controller this quantum
	np, str  int          // frames routed and stragglers this quantum
	stats    Stats
	sumQ     float64
	finished int
	err      error // the first workload error
}

// simulateReference runs cfg, which must be valid, on the reference engine.
func simulateReference(cfg Config) (*Result, error) {
	n := cfg.Nodes
	r := &refEngine{cfg: cfg, obs: cfg.Observer, hm: host.NewModel(cfg.Host), parts: map[simtime.Duration]*obs.Partitioning{}}
	if r.obs == nil {
		r.obs = obs.Base{}
	}
	r.hm.Reserve(n)
	r.hm.Share(cfg.Speeds)
	for i := 0; i < n; i++ {
		nd := &refNode{g: guest.NewNode(i, n, cfg.Guest, cfg.Program(i, n))}
		if fp := cfg.Faults; fp != nil && fp.HasSlowdown() {
			nd.slow = fp.Slowdown(i)
		}
		r.nodes = append(r.nodes, nd)
	}
	defer func() {
		for _, nd := range r.nodes {
			nd.g.Shutdown()
		}
	}()
	if n > 1 {
		r.lat, r.T = cfg.Net.LookaheadMatrix(n), simtime.Duration(math.MaxInt64)
		for i, l := range r.lat {
			if i/n != i%n {
				r.T = min(r.T, l)
			}
		}
		r.T = max(r.T, 0)
	}

	pol := cfg.Policy()
	r.obs.RunStart(obs.RunInfo{Nodes: n, Policy: pol.Name(), MaxGuest: cfg.MaxGuest, Lookahead: r.T,
		LinkLat: func(s, d int) simtime.Duration { return cfg.Net.FrameLatency(netmodel.MinProbe(), s, d) }})
	var start simtime.Guest
	var hostNow simtime.Host
	err := func() error {
		Q := pol.First()
		for qi := 0; ; qi++ {
			if Q <= 0 {
				return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", pol.Name(), Q)
			}
			hostNow = r.quantum(qi, start, Q, hostNow)
			start = r.limit
			if r.finished == n {
				return nil
			}
			if cfg.MaxGuest > 0 && start > cfg.MaxGuest {
				return fmt.Errorf("%w (reached %v)", ErrGuestLimit, start)
			}
			Q = pol.Next(quantum.Feedback{Packets: r.np, Stragglers: r.str, Now: r.limit})
		}
	}()

	var res *Result
	guestTime := start
	if err == nil {
		r.stats.MeanQ = simtime.Duration(r.sumQ / float64(r.stats.Quanta))
		res = &Result{Stats: r.stats, PolicyName: pol.Name()}
		for _, nd := range r.nodes {
			res.NodeFinish = append(res.NodeFinish, nd.g.FinishedAt())
			res.Metrics = append(res.Metrics, nd.g.Metrics())
			res.GuestTime = max(res.GuestTime, nd.g.FinishedAt())
			res.HostTime = max(res.HostTime, simtime.Duration(nd.doneH))
		}
		guestTime, err = res.GuestTime, r.err
	}
	r.obs.RunEnd(obs.RunSummary{Err: err, GuestTime: guestTime, HostEnd: hostNow, Quanta: r.stats.Quanta})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// quantum runs quantum qi = (start, start+Q] from the barrier release at host
// time hostNow and returns the host time of the next release.
func (r *refEngine) quantum(qi int, start simtime.Guest, Q simtime.Duration, hostNow simtime.Host) simtime.Host {
	r.limit, r.lastH, r.np, r.str = start.Add(Q), hostNow, 0, 0
	p := r.partitionFor(Q)
	r.obs.QuantumStart(qi, start, Q, hostNow)
	if r.T > 0 {
		r.obs.QuantumPartition(qi, p)
	}
	for i, nd := range r.nodes {
		nd.g.BeginQuantum(r.limit)
		nd.atBarrier, nd.inSeg = false, false
		if nd.g.Done() {
			r.idleTo(i, r.limit, hostNow) // the simulator idles to the barrier
		} else {
			r.push(hostNow, refPriStep, i, nil)
		}
	}
	for len(r.events) > 0 {
		r.process(r.popEarliest())
	}

	// The barrier waits for the last node and the last frame, then costs the
	// barrier itself plus the controller's time per routed frame.
	maxH := r.lastH
	for _, nd := range r.nodes {
		maxH = max(maxH, nd.barrierH)
	}
	routing := simtime.Duration(r.np) * r.cfg.Host.PacketHostCost
	end := maxH.Add(r.cfg.Host.BarrierCost).Add(routing)
	s := &r.stats
	s.HostBarrier += end.Sub(maxH)
	if s.Quanta == 0 || Q < s.MinQ {
		s.MinQ = Q
	}
	s.MaxQ = max(s.MaxQ, Q)
	s.Quanta++
	if r.np == 0 {
		s.SilentQuanta++
	}
	r.sumQ += float64(Q)
	switch n := len(r.nodes); {
	case p.Loose == n:
		s.FastFullQuanta++
	case p.Loose > 0:
		s.FastPartialQuanta++
		s.PartialPartitions += p.Partitions
	}
	s.FastNodeQuanta += p.Loose
	r.obs.QuantumEnd(obs.QuantumRecord{Index: qi, Start: start, Q: Q, Packets: r.np, Stragglers: r.str,
		HostStart: hostNow, BarrierStart: maxH, HostEnd: end, Routing: routing})
	return end
}

func (r *refEngine) push(h simtime.Host, pri, node int, fl *refFlight) {
	r.seq++
	r.events = append(r.events, refEvent{h: h, pri: pri, seq: r.seq, node: node, fl: fl})
}

// popEarliest removes and returns the earliest event by (host time,
// priority, push order).
func (r *refEngine) popEarliest() refEvent {
	k := 0
	for i, ev := range r.events {
		a := r.events[k]
		if ev.h < a.h || ev.h == a.h && (ev.pri < a.pri || ev.pri == a.pri && ev.seq < a.seq) {
			k = i
		}
	}
	ev := r.events[k]
	r.events = append(r.events[:k], r.events[k+1:]...)
	return ev
}

func (r *refEngine) process(ev refEvent) {
	switch ev.pri {
	case refPriFrame:
		r.route(ev.h, ev.fl)
	case refPriWake:
		nd := r.nodes[ev.node]
		if ev.seq != nd.wake {
			return // a delivery cut this wait short or re-aimed it
		}
		r.obs.NodePhase(ev.node, obs.PhaseIdle, nd.g0, nd.g1, nd.h0, ev.h)
		nd.g.WakeAt(nd.g1)
		nd.inSeg = false
		if nd.g.Done() {
			r.reachBarrier(ev.node, ev.h)
			return
		}
		r.step(ev.node, ev.h)
	default:
		r.step(ev.node, ev.h)
	}
}

// step runs node i's guest from host time h to its next segment, or to the
// barrier.
func (r *refEngine) step(i int, h simtime.Host) {
	nd := r.nodes[i]
	for {
		st := nd.g.Step()
		switch st.Kind {
		case guest.StepBusy:
			r.segment(i, host.Busy, st.From, st.To, h)
			return
		case guest.StepSend:
			r.send(i, h, st.To, st.Frame)
		case guest.StepBlocked:
			if to := min(st.NextArrival, st.Deadline, r.limit); to > st.To {
				r.idleTo(i, to, h)
			} else {
				r.reachBarrier(i, h)
			}
			return
		case guest.StepLimit:
			r.reachBarrier(i, h)
			return
		case guest.StepDone:
			if st.Err != nil && r.err == nil {
				r.err = fmt.Errorf("cluster: rank %d: %w", i, st.Err)
			}
			r.finished++
			nd.doneH = h
			r.obs.NodePhase(i, obs.PhaseDone, st.To, st.To, h, h)
			r.idleTo(i, r.limit, h)
			return
		}
	}
}

// idleTo starts node i's idle wait from its clock to guest time to.
func (r *refEngine) idleTo(i int, to simtime.Guest, h simtime.Host) {
	r.segment(i, host.Idle, r.nodes[i].g.Clock(), to, h)
}

// segment puts node i into a busy or idle segment over guest time [g0, g1)
// from host time h0, charges its host cost, and makes its end the node's
// pending event: a step to resume, or a wake. A busy segment is reported as
// it starts, an idle one when it ends.
func (r *refEngine) segment(i int, mode host.Mode, g0, g1 simtime.Guest, h0 simtime.Host) {
	nd := r.nodes[i]
	cost := r.hm.HostCost(i, g0, g1, mode)
	if nd.slow != 0 {
		cost = cost.Scale(nd.slow)
	}
	nd.mode, nd.inSeg = mode, true
	nd.g0, nd.g1, nd.h0, nd.h1 = g0, g1, h0, h0.Add(cost)
	if mode == host.Idle {
		r.stats.HostIdle += cost
		r.push(nd.h1, refPriWake, i, nil)
		nd.wake = r.seq
	} else {
		r.stats.HostBusy += cost
		r.obs.NodePhase(i, obs.PhaseBusy, g0, g1, h0, nd.h1)
		r.push(nd.h1, refPriStep, i, nil)
	}
}

func (r *refEngine) reachBarrier(i int, h simtime.Host) {
	nd := r.nodes[i]
	nd.atBarrier, nd.inSeg, nd.barrierH = true, false, h
}

// position is node i's guest time at host time h.
func (r *refEngine) position(i int, h simtime.Host) simtime.Guest {
	nd := r.nodes[i]
	switch {
	case !nd.inSeg:
		return nd.g.Clock()
	case h >= nd.h1:
		return nd.g1
	case h <= nd.h0:
		return nd.g0
	}
	elapsed := h.Sub(nd.h0)
	if nd.slow != 0 {
		elapsed = elapsed.Scale(1 / nd.slow)
	}
	return r.hm.GuestAt(i, nd.g0, elapsed, nd.mode, nd.g1)
}

// send takes a frame through node i's NIC and ships a copy to every
// destination the switch forwards it to: every other node for a broadcast,
// the addressed node for a unicast, nowhere for an unknown address, which the
// controller still counts.
func (r *refEngine) send(i int, h simtime.Host, sent simtime.Guest, f *pkt.Frame) {
	nd := r.nodes[i]
	nd.txFree = max(sent, nd.txFree).Add(r.cfg.Net.NIC.Serialization(f))
	var dsts []int
	switch d := f.Dst.Node(); {
	case f.Dst.IsBroadcast():
		for d := range r.nodes {
			if d != i {
				dsts = append(dsts, d)
			}
		}
	case d >= 0 && d < len(r.nodes):
		dsts = []int{d}
	default:
		r.np++
		r.stats.Packets++
	}
	for _, d := range dsts {
		fl := &refFlight{f: *f, src: i, dst: d, sent: sent, due: nd.txFree.Add(r.cfg.Net.PostTxLatency(f, i, d))}
		r.push(h.Add(r.cfg.Host.PacketTransit), refPriFrame, -1, fl)
	}
}

// route is the controller receiving a frame at host time h: it counts it,
// draws its faults and delivers what survives — nothing, the frame, or the
// frame and a duplicate.
func (r *refEngine) route(h simtime.Host, fl *refFlight) {
	r.lastH = max(r.lastH, h)
	r.np++
	r.stats.Packets++
	due := []simtime.Guest{fl.due}
	if fp := r.cfg.Faults; fp != nil {
		d := fp.Decide(fl.f.ID, fl.src, fl.dst, fl.sent)
		if d.Drop {
			r.stats.Dropped++
			r.obs.Packet(obs.PacketRecord{SendGuest: fl.sent, Ideal: fl.due, Latency: fl.due.Sub(fl.sent),
				Src: fl.src, Dst: fl.dst, Size: fl.f.Size, Dropped: true})
			return
		}
		due[0] = fl.due.Add(d.Delay)
		if d.Dup {
			r.stats.Duplicated++
			due = append(due, fl.due.Add(d.DupDelay))
		}
	}
	for k, tD := range due {
		r.deliver(h, fl, tD, k == 1)
	}
}

// deliver hands one copy of a frame, due at tD, to its destination by the
// paper's rule (Figure 3). A destination that has not yet reached tD gets it
// exactly at tD. One that has run past tD gets it at once, where it stands: a
// straggler. One already waiting at the barrier cannot go back, so a frame
// due before the barrier is a straggler there, delivered at the boundary —
// it snaps to the next quantum.
func (r *refEngine) deliver(h simtime.Host, fl *refFlight, tD simtime.Guest, dup bool) {
	nd := r.nodes[fl.dst]
	arr, late, snapped := tD, false, false
	if nd.atBarrier {
		if tD < r.limit {
			arr, late, snapped = r.limit, true, true
		}
	} else if pos := r.position(fl.dst, h); pos > tD {
		arr, late = pos, true
	}
	s := &r.stats
	s.Deliveries++
	if late {
		s.Stragglers++
		r.str++
		s.StragglerDelay += arr.Sub(tD)
		if snapped {
			s.QuantumSnaps++
		}
	} else {
		s.Exact++
	}
	r.obs.Packet(obs.PacketRecord{SendGuest: fl.sent, Ideal: tD, Arrival: arr, Latency: fl.due.Sub(fl.sent),
		Src: fl.src, Dst: fl.dst, Size: fl.f.Size, Straggler: late, Snapped: snapped, Duplicate: dup})
	nd.g.Deliver(&fl.f, arr)

	// An idle destination waits for something else than this frame — unless
	// its workload has finished, in which case it idles to the barrier
	// whatever arrives.
	if !nd.inSeg || nd.mode != host.Idle || nd.g.Done() {
		return
	}
	switch {
	case late:
		// A straggler wakes it now: the rest of the idle wait never happens.
		nd.wake = 0
		s.HostIdle -= nd.h1.Sub(h)
		r.obs.NodePhase(fl.dst, obs.PhaseIdle, nd.g0, arr, nd.h0, h)
		nd.inSeg = false
		nd.g.WakeAt(arr)
		r.step(fl.dst, h)
	case arr < nd.g1:
		// An exact arrival before its wake time brings the wake forward.
		s.HostIdle -= nd.h1.Sub(nd.h0)
		r.segment(fl.dst, host.Idle, nd.g0, arr, nd.h0)
	}
}

// partitionFor is the lookahead partitioning of a quantum of size Q. A link
// whose lower bound is below Q can carry a frame that arrives inside the
// quantum, so the nodes it joins, in either direction, must synchronize
// within it: the components of those tight links are the partitions,
// numbered by their smallest member, and a component of one node is loose.
// Without lookahead the whole cluster is one partition. The stream carries
// the sixteen tightest links.
func (r *refEngine) partitionFor(Q simtime.Duration) *obs.Partitioning {
	if p := r.parts[Q]; p != nil {
		return p
	}
	n := len(r.nodes)
	p := &obs.Partitioning{Part: make([]int32, n), Partitions: 1, TightPartitions: 1}
	r.parts[Q] = p
	if r.T == 0 {
		return p
	}
	root := make([]int, n) // union-find; every root is its component's smallest node
	for i := range root {
		root[i] = i
	}
	find := func(x int) int {
		for root[x] != x {
			x = root[x]
		}
		return x
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if l := r.lat[s*n+d]; s != d && l < Q {
				a, b := find(s), find(d)
				root[max(a, b)] = min(a, b)
				p.MaxTightLat = max(p.MaxTightLat, l)
			}
		}
	}
	size := make([]int, n)
	for i := range root {
		size[find(i)]++
	}
	p.Partitions = 0
	for i := range root {
		if c := find(i); c < i {
			p.Part[i] = p.Part[c]
		} else {
			p.Part[i] = int32(p.Partitions)
			p.Partitions++
		}
		if size[find(i)] == 1 {
			p.Loose++
		}
	}
	p.TightPartitions = p.Partitions - p.Loose
	return p
}
