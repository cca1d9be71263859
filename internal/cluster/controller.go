package cluster

import (
	"clustersim/internal/faults"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
)

// controller is the paper's network controller, minus whatever depends on
// who runs the nodes: the per-quantum eligibility gate, the NIC departure,
// the switch's fan-out rule, a frame's exact arrival time, the fault draws,
// the three-case delivery rule and the accounting of all of them. The
// deterministic engine and the goroutine runner each embed one, so there is a
// single definition of "straggler"; what stays with the runner is what
// differs — deferral and idle re-aim in the engine, the mutex (which guards
// every field here but net) and park/wake in the runner.
type controller struct {
	n      int // nodes
	net    *netmodel.Model
	faults *faults.Plan
	// obs is the run's one tap: every sink the configuration names, composed.
	// Each hook site is guarded by a nil check, so a run without sinks builds
	// no records and pays only the branch.
	obs obs.Observer

	// la is the run's lookahead (DESIGN.md §2.1): it partitions every quantum,
	// and the partitioning alone decides how the quantum executes, what
	// engagement it is accounted and what the stream is told.
	la *lookahead

	limit   simtime.Guest // current quantum end
	part    *partitioning // current quantum's lookahead partitioning
	np, str int           // frames routed and stragglers this quantum
	stats   Stats
	sumQ    float64
}

// newController probes the lookahead for the given model (newLookahead).
func newController(nodes int, net *netmodel.Model, fp *faults.Plan, o obs.Observer) controller {
	return controller{n: nodes, net: net, faults: fp, obs: o, la: newLookahead(net, nodes)}
}

// runStart announces the run to the observer.
func (c *controller) runStart(policy string, parallel bool, maxGuest simtime.Guest) {
	if c.obs == nil {
		return
	}
	net := c.net // a sink may keep LinkLat past the run; it must not pin the runner
	c.obs.RunStart(obs.RunInfo{
		Nodes: c.n, Policy: policy, Parallel: parallel, MaxGuest: maxGuest,
		Lookahead: c.la.min,
		LinkLat: func(src, dst int) simtime.Duration {
			return net.FrameLatency(netmodel.MinProbe(), src, dst)
		},
	})
}

// runEnd closes the run out for the observer — both runners call it on every
// path out of a run that called runStart, err saying why it stopped short;
// quiet and quietNodes count what the runner fast-forwarded (DESIGN.md §2.3).
func (c *controller) runEnd(err error, guestTime simtime.Guest, hostEnd simtime.Host, quiet, quietNodes int) {
	if c.obs == nil {
		return
	}
	c.obs.RunEnd(obs.RunSummary{
		Err:             err,
		GuestTime:       guestTime,
		HostEnd:         hostEnd,
		Quanta:          c.stats.Quanta,
		QuietQuanta:     quiet,
		QuietNodeQuanta: quietNodes,
	})
}

// beginQuantum opens quantum qi = (start, start+Q] at host time h and
// partitions it as c.part. A lookahead that is ruled out has one partitioning
// for every Q, which says nothing and is not published.
func (c *controller) beginQuantum(qi int, start simtime.Guest, Q simtime.Duration, h simtime.Host) {
	c.limit = start.Add(Q)
	c.np, c.str = 0, 0
	c.part = c.la.partitionFor(Q)
	c.publishStart(qi, start, Q, h)
}

// publishStart publishes the opening of quantum qi, partitioned as the
// current one.
func (c *controller) publishStart(qi int, start simtime.Guest, Q simtime.Duration, h simtime.Host) {
	if c.obs != nil {
		c.obs.QuantumStart(qi, start, Q, h)
		if c.la.min > 0 {
			c.obs.QuantumPartition(qi, &c.part.Partitioning)
		}
	}
}

// foldQuanta folds k finished quanta of duration Q, each partitioned like the
// current one and carrying its traffic, into the aggregate (k > 1: a quiet
// stretch, DESIGN.md §2.3). The engagement accounting is a pure function of
// (Q, lookahead), so Stats and what a sink derives from the stream are
// identical for both runners.
func (c *controller) foldQuanta(k int, Q simtime.Duration) {
	switch loose := c.part.Loose; {
	case loose == c.n:
		c.stats.FastFullQuanta += k
	case loose > 0:
		c.stats.FastPartialQuanta += k
		c.stats.PartialPartitions += k * c.part.Partitions
	}
	c.stats.FastNodeQuanta += k * c.part.Loose
	c.stats.observeQuanta(k, Q, c.np)
	c.sumQ += float64(k) * float64(Q)
}

// endQuantum folds the finished quantum into the aggregate and publishes its
// record; routing is the controller's per-packet share of the barrier span.
func (c *controller) endQuantum(qi int, start simtime.Guest, Q simtime.Duration, hStart, barrierStart, hEnd simtime.Host, routing simtime.Duration) {
	c.foldQuanta(1, Q)
	c.publishQuantum(qi, start, Q, hStart, barrierStart, hEnd, routing)
}

// publishQuantum publishes quantum qi's record.
func (c *controller) publishQuantum(qi int, start simtime.Guest, Q simtime.Duration, hStart, barrierStart, hEnd simtime.Host, routing simtime.Duration) {
	if c.obs != nil {
		c.obs.QuantumEnd(obs.QuantumRecord{
			Index:        qi,
			Start:        start,
			Q:            Q,
			Packets:      c.np,
			Stragglers:   c.str,
			HostStart:    hStart,
			BarrierStart: barrierStart,
			HostEnd:      hEnd,
			Routing:      routing,
		})
	}
}

// depart is the source NIC: a frame handed to it at guest time tSend leaves
// once the transmitter *txFree is free and the frame is serialized, which is
// when the transmitter frees up next. It reads only the net model.
func (c *controller) depart(txFree *simtime.Guest, tSend simtime.Guest, f *pkt.Frame) simtime.Guest {
	*txFree = simtime.MaxGuest(tSend, *txFree).Add(c.net.NIC.Serialization(f))
	return *txFree
}

// fanOut is the switch's forwarding rule for a frame src sends: it is shipped
// to every destination in [lo, hi) but skip. A broadcast goes to every other
// node; a unicast to its node, the sender's own included. A frame to an
// unknown MAC is flooded nowhere — the cluster has no other ports — but is
// counted as routed traffic here.
func (c *controller) fanOut(src int, f *pkt.Frame) (lo, hi, skip int) {
	if f.Dst.IsBroadcast() {
		return 0, c.n, src
	}
	dst := f.Dst.Node()
	if dst < 0 || dst >= c.n {
		c.countPacket()
		return 0, 0, -1
	}
	return dst, dst + 1, -1
}

// arrival is the exact simulated arrival time of a frame that left src's NIC
// at guest time depart: a pure function of the frame, its link and its
// departure, so the order in which the controller sees frames cannot move it.
func (c *controller) arrival(f *pkt.Frame, src, dst int, depart simtime.Guest) simtime.Guest {
	return depart.Add(c.net.PostTxLatency(f, src, dst))
}

// countPacket counts one frame toward the quantum's and the run's traffic.
func (c *controller) countPacket() {
	c.np++
	c.stats.Packets++
}

// route is the controller receiving one flight: it counts the frame (drops
// included, so Algorithm 1's np==0 test still sees lost traffic) and draws
// its faults, and returns the arrival times of the n copies that survive —
// none, the frame, or the frame and an injected duplicate. Fault outcomes are
// pure per-frame functions and injected delay only ever adds to the arrival
// time, so neither the order flights are routed in nor the lookahead bounds
// are affected.
func (c *controller) route(fl *flight) (tDs [2]simtime.Guest, n int) {
	c.countPacket()
	tDs[0] = fl.tD
	if c.faults == nil {
		return tDs, 1
	}
	d := c.faults.Decide(fl.f.ID, int(fl.src), int(fl.dst), fl.tSend)
	if d.Drop {
		c.stats.Dropped++
		if c.obs != nil {
			c.obs.Packet(obs.PacketRecord{
				SendGuest: fl.tSend, Ideal: fl.tD, Latency: fl.tD.Sub(fl.tSend),
				Src: int(fl.src), Dst: int(fl.dst), Size: fl.f.Size,
				Dropped: true,
			})
		}
		return tDs, 0
	}
	tDs[0] = fl.tD.Add(d.Delay)
	if !d.Dup {
		return tDs, 1
	}
	c.stats.Duplicated++
	tDs[1] = fl.tD.Add(d.DupDelay)
	return tDs, 2
}

// classify is the paper's delivery rule (Figure 3) for a frame due at tD
// whose destination stands at guest position pos, or at the barrier of the
// quantum ending at limit: exact when the destination has not passed tD; a
// straggler, delivered at once, when it has; and, when it already finished
// its quantum, a straggler that snaps to the next boundary (Figure 3(d)).
func classify(atBarrier bool, pos, tD, limit simtime.Guest) (arr simtime.Guest, straggler, snapped bool) {
	switch {
	case atBarrier && tD < limit:
		return limit, true, true
	case !atBarrier && tD < pos:
		return pos, true, false
	}
	return tD, false, false
}

// deliver classifies one surviving copy of a flight — tD is the copy's own
// arrival time, fl.tD the flight's before its fault draws — and accounts for
// it, so that a duplicate counts independently in the straggler statistics.
// Handing the frame to the destination at arr is the caller's.
func (c *controller) deliver(fl *flight, tD simtime.Guest, atBarrier bool, pos simtime.Guest, dupCopy bool) (arr simtime.Guest, straggler bool) {
	arr, straggler, snapped := classify(atBarrier, pos, tD, c.limit)
	st := &c.stats
	st.Deliveries++
	if straggler {
		st.Stragglers++
		c.str++
		st.StragglerDelay += arr.Sub(tD)
		if snapped {
			st.QuantumSnaps++
		}
	} else {
		st.Exact++
	}
	if c.obs != nil {
		c.obs.Packet(obs.PacketRecord{
			SendGuest: fl.tSend, Ideal: tD, Arrival: arr, Latency: fl.tD.Sub(fl.tSend),
			Src: int(fl.src), Dst: int(fl.dst), Size: fl.f.Size,
			Straggler: straggler, Snapped: snapped, Duplicate: dupCopy,
		})
	}
	return arr, straggler
}
