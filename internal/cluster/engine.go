package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

// ErrGuestLimit is returned when a run exceeds Config.MaxGuest without all
// workloads finishing — usually a deadlocked workload.
var ErrGuestLimit = errors.New("cluster: guest time limit exceeded before workloads finished")

type nodePhase int32

const (
	phRunning nodePhase = iota // executing; a segment/step event is pending
	phIdle                     // blocked; a wake event is pending
	phAtLimit                  // reached the quantum boundary
)

// nodeArena holds every per-node engine field as parallel slices indexed by
// node: a pass over one field walks one contiguous lane, and the lanes of
// one element type share one allocation (newNodeArena); see DESIGN.md §2.4.
type nodeArena struct {
	node  []*guest.Node
	phase []nodePhase

	// Current segment (busy execution or idle wait, as phase says) of a tight
	// node: guestPos interpolates the node's guest position at a host instant
	// inside it, and its end is the node's pending event (schedule). A loose
	// node takes each segment's end at once and leaves them alone. beginNode
	// opens an empty segment at the barrier release, so that the lanes alone
	// answer for a node at every instant it can be reached at.
	segStartG []simtime.Guest
	segStartH []simtime.Host
	segEndG   []simtime.Guest
	segEndH   []simtime.Host

	txFree   []simtime.Guest // guest time the NIC's transmitter frees up
	doneHost []simtime.Host  // host time the workload finished

	// Quiet fast-forward (DESIGN.md §2.3). quietUntil[i] is node i's horizon
	// — guest.Node.QuietUntil, zero when unknown — and quietBusy[i] its mode
	// up to it. An entry stays valid until the node is stepped or a frame is
	// pushed to it, the two places that zero it; quietQuantum re-peeks the
	// entries the current limit has reached. lag[i] marks a node the engine
	// has fast-forwarded without telling it: its guest clock still stands
	// where the quiet stretch began, and syncNode catches it up.
	quietUntil []simtime.Guest
	quietBusy  []bool
	lag        []bool

	// restCost[i] is the host time one quiet quantum of node i takes in its
	// quiet mode, in the jitter window and at the Q named by the engine's
	// restW and restQ — a duration kept as a Host so that it shares the host
	// lanes' allocation. It is current while restKey[i], the limit of the
	// quantum that priced it, lies past the engine's restFrom; quietQuantum
	// zeroes the key when it re-peeks the node, the one place its mode can
	// change.
	restCost []simtime.Host
	restKey  []simtime.Guest
}

// newNodeArena carves the lanes of each element type that has several from
// one backing array, so a run pays one allocation per type rather than per
// lane.
func newNodeArena(nodes []*guest.Node) nodeArena {
	n := len(nodes)
	g := make([]simtime.Guest, 5*n)
	h := make([]simtime.Host, 4*n)
	b := make([]bool, 2*n)
	return nodeArena{
		node:       nodes,
		phase:      make([]nodePhase, n),
		segStartG:  lane(g, 0, n),
		segStartH:  lane(h, 0, n),
		segEndG:    lane(g, 1, n),
		segEndH:    lane(h, 1, n),
		txFree:     lane(g, 2, n),
		doneHost:   lane(h, 2, n),
		quietUntil: lane(g, 3, n),
		quietBusy:  lane(b, 0, n),
		lag:        lane(b, 1, n),
		restCost:   lane(h, 3, n),
		restKey:    lane(g, 4, n),
	}
}

// lane is the k-th n-element lane of buf, capped so it cannot grow into the
// next.
func lane[T any](buf []T, k, n int) []T { return buf[k*n : (k+1)*n : (k+1)*n] }

// flight is one frame in flight through the controller: the interned record
// an evFrame event (or a deferred entry) points at, holding its own copy of
// the frame. Flights live in a per-quantum slab — every frame sent in a
// quantum is also routed in it, so the slab resets to length zero at each
// quantum start and reaches a steady state with no allocation.
type flight struct {
	f        pkt.Frame
	src, dst int32
	tSend    simtime.Guest // guest time the frame left the source workload
	tD       simtime.Guest // exact simulated arrival time
}

// routed is a flight a node's walk defers to the barrier: a flight, its
// sender and the host time it reaches the controller.
type routed struct {
	h       simtime.Host
	src, fi int32
}

// engine runs one configuration. It embeds the controller: the quantum limit,
// the per-quantum counters and the Stats are the controller's.
type engine struct {
	cfg Config
	controller
	hm     *host.Model
	na     nodeArena
	q      hostQueue
	policy quantum.Policy

	// flights is the quantum's flight slab (DESIGN.md §2.4).
	flights []flight

	qStartG simtime.Guest // guest time the quantum starts at: every node's position at the barrier
	// lastH is the latest host time, this quantum, at which a frame reached
	// the controller or a walked node the barrier; the nodes quietNodes
	// charges end by hostNow plus the largest cost it returns instead.
	lastH simtime.Host

	doneCount int
	firstErr  error
	// stepping is the node whose guest code is running inside Step, else -1:
	// a workload's panic fails the run, the engine's own propagates.
	stepping int

	// slow holds the per-node host slowdown factor from the fault plan, or
	// nil when every node runs at factor 1 — the nil check keeps the
	// fault-free path byte-identical to an engine without the feature.
	slow []float64

	// deferred holds the flights the current quantum's walks defer to the
	// barrier (DESIGN.md §2.2): a loose node's every frame, a tight node's
	// cross-partition frames, in the order they were sent.
	deferred []routed

	// quietH is the minimum of the arena's quietUntil lane as of the last full
	// scan, so a stretch in which no node acts costs one comparison per
	// quantum; a stepped quantum leaves it at or below its limit, which every
	// later limit exceeds.
	quietH simtime.Guest
	// restW and restQ are the jitter window and the Q that the restCost lane
	// prices (restQ is zero, no quantum's Q, until the first pass), and
	// restFrom the start of the first quantum quietNodes met them in: an entry
	// keyed at or before it is stale.
	restW       int64
	restQ       simtime.Duration
	restFrom    simtime.Guest
	nQuiet      int // quanta executed whole by the quiet pass
	nQuietNodes int // node-quanta executed by quietNodes
	qi          int // current quantum's index
}

// Run executes the configuration and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Nodes
	e := &engine{
		cfg:        cfg,
		controller: newController(n, cfg.Net, cfg.Faults, cfg.sink()),
		hm:         host.NewModel(cfg.Host),
		policy:     cfg.Policy(),
		stepping:   -1,
	}
	e.hm.Reserve(n)
	e.hm.Share(cfg.Speeds)
	nodes, err := newNodes(n, cfg.Guest, cfg.Program)
	if err != nil {
		return nil, err
	}
	defer e.shutdown()
	e.na = newNodeArena(nodes)
	if fp := cfg.Faults; fp != nil && fp.HasSlowdown() {
		e.slow = make([]float64, n)
		for i := range e.slow {
			e.slow[i] = fp.Slowdown(i)
		}
	}
	e.deferred = make([]routed, 0, deferredPerNode*n)
	return e.run()
}

func (e *engine) shutdown() {
	for _, n := range e.na.node {
		n.Shutdown()
	}
}

// deferredPerNode sizes the deferred list: quanta short enough to leave a
// node loose seldom see it send more frames than this.
const deferredPerNode = 4

// run executes the quanta and closes the run out the same way however they
// ended: RunEnd follows RunStart.
func (e *engine) run() (*Result, error) {
	e.runStart(e.policy.Name(), false, e.cfg.MaxGuest)
	start, hostNow, err := e.runQuanta()
	guestTime := start // where a run that was given up stood
	var res *Result
	if err == nil {
		res = e.result()
		guestTime, err = res.GuestTime, e.firstErr
	}
	e.runEnd(err, guestTime, hostNow, e.nQuiet, e.nQuietNodes)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runQuanta executes quanta until every workload has finished or the run is
// given up, and returns the guest and host time of the last barrier passed.
func (e *engine) runQuanta() (start simtime.Guest, hostNow simtime.Host, err error) {
	defer func() {
		if e.stepping < 0 {
			return // not in guest code: an engine bug, which must propagate
		}
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: rank %d panicked in quantum %d: %v", e.stepping, e.qi, p)
		}
	}()
	nodes := e.cfg.Nodes
	Q := e.policy.First()
	for e.qi = 0; ; e.qi++ {
		if Q <= 0 {
			return start, hostNow, fmt.Errorf("cluster: policy %q issued non-positive quantum %v", e.policy.Name(), Q)
		}
		e.qStartG = start
		e.lastH = hostNow
		e.flights = e.flights[:0]
		// The quantum's lookahead partitioning is all that selects how it is
		// stepped (DESIGN.md §2.1).
		e.beginQuantum(e.qi, start, Q, hostNow)
		// Ahead of it: when no node has an event before the limit there is
		// nothing to step, queue or route, and the quantum — with every
		// identical one after it — is one arithmetic pass over the nodes.
		if e.quietQuantum() {
			hostNow = e.quietStretch(start, Q, hostNow)
		} else {
			restMax := e.runQuantum(hostNow)
			// Barrier: wait for the slowest node and any late frames, pay the
			// barrier cost plus the controller's per-packet occupancy.
			maxH := simtime.MaxHost(e.lastH, hostNow.Add(restMax))
			routing := simtime.Duration(e.np) * e.cfg.Host.PacketHostCost
			barrierEnd := maxH.Add(e.cfg.Host.BarrierCost).Add(routing)
			e.stats.HostBarrier += barrierEnd.Sub(maxH)
			e.endQuantum(e.qi, start, Q, hostNow, maxH, barrierEnd, routing)
			hostNow = barrierEnd
		}
		start = e.limit

		if e.doneCount == nodes {
			return start, hostNow, nil
		}
		if e.cfg.MaxGuest > 0 && start > e.cfg.MaxGuest {
			return start, hostNow, fmt.Errorf("%w (reached %v)", ErrGuestLimit, start)
		}

		Q = e.policy.Next(quantum.Feedback{Packets: e.np, Stragglers: e.str, Now: e.limit})
	}
}

// result catches every node up with the final barrier and collects the result.
func (e *engine) result() *Result {
	for i := range e.na.node {
		e.syncNode(i, e.limit)
	}
	e.stats.finalize(e.sumQ)
	res := &Result{Stats: e.stats, PolicyName: e.policy.Name()}
	for i, n := range e.na.node {
		res.NodeFinish = append(res.NodeFinish, n.FinishedAt())
		res.Metrics = append(res.Metrics, n.Metrics())
		res.GuestTime = simtime.MaxGuest(res.GuestTime, n.FinishedAt())
		if d := e.na.doneHost[i]; simtime.Duration(d) > res.HostTime {
			res.HostTime = simtime.Duration(d)
		}
	}
	return res
}

// beginNode resets node i to the barrier release that starts the current
// quantum and leaves its first event pending: a step at hostNow, or — a
// finished workload, OS housekeeping only — the idle stretch to the limit.
func (e *engine) beginNode(i int, hostNow simtime.Host) {
	n := e.na.node[i]
	e.syncNode(i, e.qStartG)
	n.BeginQuantum(e.limit)
	e.na.quietUntil[i] = 0
	e.na.phase[i] = phRunning
	e.na.segEndG[i], e.na.segEndH[i] = e.qStartG, hostNow
	if n.Done() {
		e.idleTo(i, e.limit, hostNow)
	}
}

// schedule sets tight node i's pending event in the queue to the end of the
// segment in its lanes, in place of the one it had: a step after a busy
// segment, a wake after an idle one, none for a node at the limit.
func (e *engine) schedule(i int) {
	if ph := e.na.phase[i]; ph == phAtLimit {
		e.q.cancel(i)
	} else {
		e.q.schedule(i, e.na.segEndH[i], ph == phIdle)
	}
}

// drainQueue dispatches the queued events in host-time order until the
// scheduled nodes have all reached the limit: every event of every tight
// partition comes through here.
func (e *engine) drainQueue() {
	for h, fi, i, ok := e.q.next(); ok; h, fi, i, ok = e.q.next() {
		if i < 0 {
			e.routeFlight(h, fi)
		} else {
			e.dispatch(h, int(i))
		}
	}
}

// dispatch runs node i's pending event, a wake or a step by its phase, and
// reschedules the node. Only node i's queue entry moves: anything the step
// sends is a frame event.
func (e *engine) dispatch(h simtime.Host, i int) {
	if e.na.phase[i] != phIdle || !e.endIdle(i, e.na.segStartG[i], e.na.segEndG[i], e.na.segStartH[i], h) {
		e.stepNode(i, h)
	}
	e.schedule(i)
}

// stepNode is the node step: it drives node i's Step loop from host time h and
// charges the host for what the guest does — the one place a stepped node's
// busy and idle cost, finish and arrival at the limit are accounted and
// reported. A tight node returns at every segment it starts, the segment in
// its lanes for schedule to queue the end of: a frame may reach it before
// then. A loose node is reached by nothing before the barrier, so it takes
// each segment's end at once and only returns at the limit.
func (e *engine) stepNode(i int, h simtime.Host) {
	n := e.na.node[i]
	loose := e.part.fastNode[i]
	for {
		e.stepping = i
		st := n.Step()
		e.stepping = -1
		var target simtime.Guest
		switch st.Kind {
		case guest.StepBusy:
			cost := e.hostCost(i, st.From, st.To, host.Busy)
			e.stats.HostBusy += cost
			endH := h.Add(cost)
			if e.obs != nil {
				// Busy segments always run to completion, so the extent is
				// final at creation.
				e.obs.NodePhase(i, obs.PhaseBusy, st.From, st.To, h, endH)
			}
			if !loose {
				e.startSeg(i, host.Busy, st.From, st.To, h, endH)
				return
			}
			h = endH
			continue

		case guest.StepSend:
			// Sending costs no additional host time beyond the guest
			// overhead already charged; keep stepping.
			e.sendFrame(i, h, st.To, st.Frame)
			continue

		case guest.StepBlocked:
			target = simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, e.limit)
			if target <= st.To {
				// Blocked exactly at the quantum boundary.
				e.atLimit(i, h)
				return
			}

		case guest.StepLimit:
			e.atLimit(i, h)
			return

		case guest.StepDone:
			if st.Err != nil && e.firstErr == nil {
				e.firstErr = fmt.Errorf("cluster: rank %d: %w", i, st.Err)
			}
			e.doneCount++
			e.na.doneHost[i] = h
			if e.obs != nil {
				e.obs.NodePhase(i, obs.PhaseDone, st.To, st.To, h, h)
			}
			// The simulator keeps idling to the barrier.
			target = e.limit
		}

		// A tight node is now in its idle segment, a loose node whose workload
		// has finished at the barrier. Any other loose node steps on from the
		// segment's end: arrivals already in the receive queue (delivered at
		// earlier barriers) become consumable at target.
		if h = e.idleTo(i, target, h); e.na.phase[i] != phRunning {
			return
		}
	}
}

// idleTo idles node i from its clock to guest time target, beginning at host
// time h, and returns the host time the segment ends. A tight node is left
// in it, its wake to be scheduled; a loose node takes its end at once.
func (e *engine) idleTo(i int, target simtime.Guest, h simtime.Host) simtime.Host {
	from := e.na.node[i].Clock()
	if target < from {
		panic(fmt.Sprintf("cluster: node %d idling backwards %v -> %v", i, from, target))
	}
	cost := e.hostCost(i, from, target, host.Idle)
	e.stats.HostIdle += cost
	endH := h.Add(cost)
	if e.part.fastNode[i] {
		e.endIdle(i, from, target, h, endH)
	} else {
		e.startSeg(i, host.Idle, from, target, h, endH)
	}
	return endH
}

// endIdle ends node i's idle segment. Its extent is only final here —
// deliveries may have re-aimed a tight node's since idleTo — so this is where
// it is reported. A finished workload's node has thereby reached the barrier,
// which endIdle reports; any other wakes to step on.
func (e *engine) endIdle(i int, g0, g1 simtime.Guest, h0, h1 simtime.Host) (atBarrier bool) {
	if e.obs != nil {
		e.obs.NodePhase(i, obs.PhaseIdle, g0, g1, h0, h1)
	}
	n := e.na.node[i]
	n.WakeAt(g1)
	if n.Done() {
		e.atLimit(i, h1)
		return true
	}
	e.na.phase[i] = phRunning
	return false
}

// startSeg puts tight node i into the busy or idle segment it starts at host
// time h0; its end is the node's pending event.
func (e *engine) startSeg(i int, mode host.Mode, g0, g1 simtime.Guest, h0, h1 simtime.Host) {
	ph := phRunning
	if mode == host.Idle {
		ph = phIdle
	}
	e.na.phase[i] = ph
	e.na.segStartG[i], e.na.segEndG[i] = g0, g1
	e.na.segStartH[i], e.na.segEndH[i] = h0, h1
}

// atLimit stands node i at the barrier, reached at host time h.
func (e *engine) atLimit(i int, h simtime.Host) {
	e.na.phase[i] = phAtLimit
	e.lastH = simtime.MaxHost(e.lastH, h)
}

// sendFrame takes the frame through the source NIC and the switch's fan-out
// rule (both the controller's), computes each copy's exact simulated arrival
// time, and ships it to the controller in host time. Inside a tight
// partition's walk a copy becomes an interned flight plus a frame event
// dispatched at the host time it reaches the controller — unless it
// crosses to another partition: its destination lies across a loose link, so
// the arrival time is provably at or past the limit, routing it at the
// barrier is behavior-neutral (DESIGN.md §2.2), and it is deferred. A loose
// node has no queue, so it defers every copy, the ones it sends itself
// included.
func (e *engine) sendFrame(i int, h simtime.Host, tSend simtime.Guest, f *pkt.Frame) {
	depart := e.depart(&e.na.txFree[i], tSend, f)
	arrHost := h.Add(e.cfg.Host.PacketTransit)
	lo, hi, skip := e.fanOut(i, f)
	for dst := lo; dst < hi; dst++ {
		if dst == skip {
			continue
		}
		fi := int32(len(e.flights))
		e.flights = append(e.flights, flight{ // flight log grows to the per-quantum high-water mark once; length-reset each quantum
			f: *f, src: int32(i), dst: int32(dst), tSend: tSend,
			tD: e.arrival(f, i, dst, depart),
		})
		if p := e.part; p.fastNode[i] || p.Part[dst] != p.Part[i] {
			e.deferred = append(e.deferred, routed{h: arrHost, src: int32(i), fi: fi}) // deferred list grows to the per-quantum high-water mark once; length-reset each quantum
		} else {
			e.q.pushFrame(arrHost, fi)
		}
	}
}

// hostCost is the host.Model cost slowed by the node's fault-plan factor.
func (e *engine) hostCost(id int, from, to simtime.Guest, mode host.Mode) simtime.Duration {
	return e.slowed(id, e.hm.HostCost(id, from, to, mode))
}

// slowed scales node id's model cost c by its fault-plan slowdown factor; with
// no slowdowns (slow == nil) it is c verbatim.
func (e *engine) slowed(id int, c simtime.Duration) simtime.Duration {
	if e.slow != nil {
		c = c.Scale(e.slow[id])
	}
	return c
}

// guestPos returns node i's guest position at host time h, from its segment
// lanes alone. A woken node is stepped at once, before anything can reach it,
// so the lanes need no "between segments" state. Before its first step they
// hold the empty segment beginNode opened at the release: a frame that
// arrives then is due at tD > qStartG, at or past the node's clock, and is
// exact whichever position the lanes gave.
func (e *engine) guestPos(i int, h simtime.Host) simtime.Guest {
	if h >= e.na.segEndH[i] {
		return e.na.segEndG[i]
	}
	if h <= e.na.segStartH[i] {
		return e.na.segStartG[i]
	}
	elapsed := h.Sub(e.na.segStartH[i])
	if e.slow != nil {
		// A slowed node burns factor-times the host time per unit of guest
		// progress; interpolate with the unscaled elapsed time.
		elapsed = elapsed.Scale(1 / e.slow[i])
	}
	mode := host.Busy
	if e.na.phase[i] == phIdle {
		mode = host.Idle
	}
	return e.hm.GuestAt(i, e.na.segStartG[i], elapsed, mode, e.na.segEndG[i])
}

// routeFlight hands the controller one flight at host time h and delivers the
// copies that survive its fault draws. Every frame funnels through here — a
// tight partition's event queue dispatches it at the host time it reaches the
// controller, the barrier routes the deferred ones in canonical order. It
// reads the flight in place, uncopied: a flight is immutable once appended,
// and a delivery that steps a straggler's destination on may append flights
// and regrow the slab, which leaves the old array, and fl, intact and alive.
func (e *engine) routeFlight(h simtime.Host, fi int32) {
	fl := &e.flights[fi]
	e.lastH = simtime.MaxHost(e.lastH, h)
	tDs, n := e.route(fl)
	for k := 0; k < n; k++ {
		e.deliver(h, fl, tDs[k], k == 1)
	}
}

// deliver classifies one frame copy, due at tD, against the destination's
// progress and hands it to the node. At the barrier every destination stands
// at the limit, so the idle-wake adjustments below only ever fire inside a
// tight partition's walk.
func (e *engine) deliver(h simtime.Host, fl *flight, tD simtime.Guest, dupCopy bool) {
	dst := int(fl.dst)
	atBarrier := e.na.phase[dst] == phAtLimit
	var pos simtime.Guest
	if !atBarrier {
		pos = e.guestPos(dst, h)
	}
	arr, straggler := e.controller.deliver(fl, tD, atBarrier, pos, dupCopy)
	e.na.node[dst].Deliver(&fl.f, arr)
	e.na.quietUntil[dst] = 0

	// If the destination is idling, the new arrival may change its wake
	// time: a straggler wakes it right now; an exact future arrival earlier
	// than its current target re-aims the wake. A finished workload's node
	// idles to the barrier whatever arrives — the rarest exit, tested last so
	// that the common exact arrival never chases the node pointer.
	if e.na.phase[dst] != phIdle || !straggler && arr >= e.na.segEndG[dst] || e.na.node[dst].Done() {
		return
	}
	if e.q.pos[dst] < 0 {
		panic("cluster: idle node without a pending wake event")
	}
	if straggler {
		// The cancelled tail of the idle segment is never simulated.
		trunc := e.na.segEndH[dst].Sub(simtime.MaxHost(h, e.na.segStartH[dst]))
		e.stats.HostIdle -= trunc
		if e.obs != nil {
			// Report the truncated idle segment: the straggler cut it short.
			e.obs.NodePhase(dst, obs.PhaseIdle, e.na.segStartG[dst], arr,
				e.na.segStartH[dst], simtime.MaxHost(h, e.na.segStartH[dst]))
		}
		e.na.node[dst].WakeAt(arr)
		e.na.phase[dst] = phRunning
		e.stepNode(dst, h)
		e.schedule(dst)
		return
	}
	// Re-aim the idle segment at the earlier arrival.
	cost := e.hostCost(dst, e.na.segStartG[dst], arr, host.Idle)
	refund := e.na.segEndH[dst].Sub(e.na.segStartH[dst]) - cost
	e.stats.HostIdle -= refund
	e.na.segEndG[dst] = arr
	e.na.segEndH[dst] = e.na.segStartH[dst].Add(cost)
	e.schedule(dst)
}

// quietQuantum reports whether the current quantum is quiet: no node can
// send, complete an op, finish, or resume its workload strictly before or at
// the limit, so no externally visible event can occur in it however it is
// partitioned. The test is horizon > limit, strictly — an op ending exactly
// at the limit resumes the workload inside this quantum, where it may send or
// finish (DESIGN.md §2.3) — and involves only node state, so it holds or fails
// identically however the quantum is partitioned.
//
// A quiet stretch costs one comparison per quantum. Otherwise the scan
// re-peeks the horizons the limit has reached (stale ones included), all of
// them, so that a false return leaves the whole lane current for the
// executor's per-node and per-partition skips.
func (e *engine) quietQuantum() bool {
	if e.quietH > e.limit {
		return true
	}
	h, limit := simtime.GuestInfinity, e.limit
	for i, until := range e.na.quietUntil {
		if until <= limit {
			until, e.na.quietBusy[i] = e.na.node[i].QuietUntil()
			e.na.quietUntil[i] = until
			e.na.restKey[i] = 0
		}
		h = simtime.MinGuest(h, until)
	}
	e.quietH = h
	return h > limit
}

// sitsOut reports whether node i is fast-forwarded through the current
// quantum: its horizon lies past the limit, and nothing can be delivered to
// it before the barrier — which the caller guarantees: the node is loose, or
// its whole tight partition sits out (DESIGN.md §2.3).
func (e *engine) sitsOut(i int) bool { return e.na.quietUntil[i] > e.limit }

// quietNodes executes the whole quantum of each node in ids (every node when
// ids is nil) arithmetically, and k-1 identical ones after it (k > 1: a quiet
// stretch): a node with no event before the limit spends the quantum in one
// busy or idle segment from the quantum start, where every node stands at a
// barrier, to the limit — what a walk would find by stepping, with the same
// charges and the same single NodePhase, minus the Step calls and queue
// round-trips. Inside one jitter window w (window) the cost is the node's
// restCost entry, priced when stale; a quantum spanning windows (w < 0) is
// integrated by hostCost. Each node is left behind, marked in the lag lane,
// for syncNode. It returns the largest segment cost: every segment ends by
// hostNow plus it, which is all the barrier needs of these nodes.
func (e *engine) quietNodes(ids []int32, hostNow simtime.Host, k int, w int64) (maxC simtime.Duration) {
	n := len(ids)
	if ids == nil {
		n = len(e.na.node)
	}
	fresh := false // a new (window, Q) pair: every restCost entry is stale
	if d := e.limit.Sub(e.qStartG); w >= 0 && (w != e.restW || d != e.restQ) {
		e.restW, e.restQ, e.restFrom, fresh = w, d, e.qStartG, true
	}
	var busy, idle simtime.Duration // one quantum's charges
	na, limit, restFrom := &e.na, e.limit, e.restFrom
	for j := 0; j < n; j++ {
		i := j
		if ids != nil {
			i = int(ids[j])
		}
		if probe := e.cfg.onSkip; probe != nil {
			probe(e.qi, i, k)
		}
		mode, ph, total := host.Idle, obs.PhaseIdle, &idle
		if na.quietBusy[i] {
			mode, ph, total = host.Busy, obs.PhaseBusy, &busy
		}
		var cost simtime.Duration
		switch {
		case w < 0:
			cost = e.hostCost(i, e.qStartG, limit, mode)
		case !fresh && na.restKey[i] > restFrom:
			cost = simtime.Duration(na.restCost[i])
		default: // one multiply with the window's memoised multiplier, bit for bit HostCost
			cost = e.slowed(i, host.Cost(e.restQ, e.hm.Rate(mode), e.hm.Speed(i, w)))
			na.restCost[i], na.restKey[i] = simtime.Host(cost), limit
		}
		*total += cost
		if e.obs != nil {
			e.obs.NodePhase(i, ph, e.qStartG, limit, hostNow, hostNow.Add(cost))
		}
		na.lag[i] = true
		maxC = max(maxC, cost)
	}
	e.nQuietNodes += k * n
	e.stats.HostBusy += simtime.Duration(k) * busy
	e.stats.HostIdle += simtime.Duration(k) * idle
	return maxC
}

// syncNode catches node i's guest clock up to the barrier at guest time to,
// over the whole stretch of quanta quietNodes took it through since it was
// last stepped: one AdvanceQuiet however long the stretch. It runs wherever a
// node is about to be stepped (beginNode) and for every node when the run
// ends. Nothing in between reads a lagging node's clock: QuietUntil
// returns absolute times — clock plus owed overhead, a deadline, a queued
// arrival — that the catch-up leaves unchanged, and a frame is classified
// against a destination's position only while the destination is being
// walked (DESIGN.md §2.3).
func (e *engine) syncNode(i int, to simtime.Guest) {
	if e.na.lag[i] {
		e.na.lag[i] = false
		e.na.node[i].AdvanceQuiet(to, e.na.quietBusy[i])
	}
}

// window returns the jitter window the current quantum lies in, whose one
// multiplier prices a quiet quantum (quietNodes), and the window's end; w is
// -1 when the quantum spans windows or a sampling schedule sets the rate.
func (e *engine) window() (w int64, until simtime.Guest) {
	if until, w = e.hm.UniformUntil(e.qStartG); e.limit > until {
		w = -1
	}
	return w, until
}

// stretchLen is the number k >= 1 of consecutive quanta, from the quiet one
// just opened, that are provably identical to it (DESIGN.md §2.3), and the
// jitter window they lie in: the same Q — only a fixed policy promises that —
// every limit strictly below the horizon quietH, every quantum inside one
// jitter window, and none after the first that ends past MaxGuest.
func (e *engine) stretchLen(Q simtime.Duration, fixed bool) (int, int64) {
	w, until := e.window()
	if !fixed || w < 0 {
		return 1, w
	}
	k := simtime.MinGuest(until, e.quietH-1).Sub(e.qStartG) / Q
	if m := e.cfg.MaxGuest; m > 0 && m < until { // else k quanta end by until <= m
		k = min(k, m.Sub(e.qStartG)/Q+1)
	}
	return int(max(k, 1)), w
}

// quietStretch executes the quiet quantum the run loop has opened at (start,
// hostNow) and every quiet one after it, one jitter window at a time: the
// window's k quanta (stretchLen) are one quietNodes pass, accounted in closed
// form — host time is integer, so k quanta are one quantum times k exactly.
// Each lasts the slowest node's cost plus the barrier cost; there is nothing
// to route. An observer is told all k, from the one pass, in the order k
// single quanta publish in: every later quantum's segments are the first
// one's, one span further on. The stretch then opens the next window's first
// quantum as the run loop would, while the policy is fixed, the next limit
// lies below quietH and the run has not passed MaxGuest. It returns the last
// barrier's release.
func (e *engine) quietStretch(start simtime.Guest, Q simtime.Duration, hostNow simtime.Host) simtime.Host {
	_, fixed := e.policy.(quantum.Fixed)
	for {
		k, w := e.stretchLen(Q, fixed)
		maxC := e.quietNodes(nil, hostNow, k, w)
		span := maxC + e.cfg.Host.BarrierCost
		e.nQuiet += k
		e.stats.HostBarrier += simtime.Duration(k) * e.cfg.Host.BarrierCost
		e.foldQuanta(k, Q)
		e.publishQuantum(e.qi, start, Q, hostNow, hostNow.Add(maxC), hostNow.Add(span), 0)
		if e.obs != nil {
			g, h := start, hostNow
			for j := 1; j < k; j++ {
				g, h = g.Add(Q), h.Add(span)
				e.publishStart(e.qi+j, g, Q, h)
				for i, c := range e.na.restCost { // k > 1 only inside a window: the pass priced every entry
					ph := obs.PhaseIdle
					if e.na.quietBusy[i] {
						ph = obs.PhaseBusy
					}
					e.obs.NodePhase(i, ph, g, g.Add(Q), h, h.Add(simtime.Duration(c)))
				}
				e.publishQuantum(e.qi+j, g, Q, h, h.Add(maxC), h.Add(span), 0)
			}
		}
		// The pass stands at the last of the k quanta.
		e.qi += k - 1
		e.qStartG = start.Add(simtime.Duration(k-1) * Q)
		e.limit = e.qStartG.Add(Q)
		hostNow = hostNow.Add(simtime.Duration(k) * span)
		start = e.limit
		if !fixed || e.quietH <= start.Add(Q) || e.cfg.MaxGuest > 0 && start > e.cfg.MaxGuest {
			return hostNow
		}
		e.qi++
		e.qStartG, e.limit = start, start.Add(Q)
		e.publishStart(e.qi, start, Q, hostNow)
	}
}

// tightSitsOut reports whether a tight partition is skipped in the current
// quantum: it receives mid-quantum only the frames its own members send, so
// when no member can act before the limit none of them is reached before it
// either, and the partition's event-queue walk need not start.
func (e *engine) tightSitsOut(members []int32) bool {
	for _, m := range members {
		if !e.sitsOut(int(m)) {
			return false
		}
	}
	return true
}

// runQuantum executes one stepped quantum as its partitioning e.part (DESIGN.md
// §2.1, §2.2) — the only executor there is. Nothing sent in a quantum crosses
// partitions before the barrier: such a frame travels a loose link, so its
// arrival is provably at or past the limit.
//
// A tight partition's members can reach each other mid-quantum, and which of
// them has raced ahead when a frame crosses the controller is what makes a
// straggler, so they walk through the event queue, in host-time order, one
// partition at a time — the shared queue then only ever holds the current
// partition's events, and because restricting a deterministic total order to
// a subset preserves relative order, each partition's walk is bit-identical
// to its slice of a walk of the whole cluster. sendFrame defers the frames
// that leave the partition. A loose node is reached by nothing before the
// barrier, so it needs no queue: the loose nodes are stepped straight to the
// limit one after another, in ascending node order, and defer every frame
// they send. Tight partitions and loose nodes that cannot act before the limit
// are fast-forwarded instead (DESIGN.md §2.3).
//
// The barrier then sorts the deferred list into canonical (node,
// send-sequence) order — a sender's flights enter it in the order it sends
// them, so that is (src, fi) order — routes it, and delivers each surviving
// copy as the walk does. Every arrival time is at or past the limit and every
// destination is at the barrier, so each delivery is exact (DESIGN.md §2.4).
// runQuantum returns the largest cost of a node that sat out.
func (e *engine) runQuantum(hostNow simtime.Host) (restMax simtime.Duration) {
	w, _ := e.window()
	for _, members := range e.part.tight {
		if e.tightSitsOut(members) {
			restMax = max(restMax, e.quietNodes(members, hostNow, 1, w))
			continue
		}
		e.q.reserve(e.cfg.Nodes)
		for _, m := range members {
			e.beginNode(int(m), hostNow)
			e.schedule(int(m))
		}
		e.drainQueue()
	}
	for loose := e.part.loose; len(loose) > 0; {
		// A run of loose nodes that sit out is one quietNodes pass.
		n := 0
		for n < len(loose) && e.sitsOut(int(loose[n])) {
			n++
		}
		if n == 0 {
			e.walkNode(int(loose[0]), hostNow)
			n = 1
		} else {
			restMax = max(restMax, e.quietNodes(loose[:n], hostNow, 1, w))
		}
		loose = loose[n:]
	}

	slices.SortFunc(e.deferred, func(a, b routed) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.fi, b.fi))
	})
	for _, r := range e.deferred {
		e.routeFlight(r.h, r.fi)
	}
	e.deferred = e.deferred[:0]
	return restMax
}

// walkNode steps one loose node from the quantum start to the barrier: the
// node step that does not return to a queue.
func (e *engine) walkNode(i int, hostNow simtime.Host) {
	e.beginNode(i, hostNow)
	if e.na.phase[i] != phAtLimit { // else a finished workload, idled to the barrier
		e.stepNode(i, hostNow)
	}
}
