package cluster

import (
	"errors"
	"fmt"

	"clustersim/internal/eventq"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workerpool"
)

// ErrGuestLimit is returned when a run exceeds Config.MaxGuest without all
// workloads finishing — usually a deadlocked workload.
var ErrGuestLimit = errors.New("cluster: guest time limit exceeded before workloads finished")

// event kinds in the host-time queue.
type evKind int32

const (
	evFrame evKind = iota // a frame reaches the controller/destination
	evStep                // a node's current segment ends; resume stepping
	evWake                // an idle node reaches its wake guest time
)

// event priorities: at identical host times, frames are routed before nodes
// resume, so a delivery racing a segment end is observed by the resuming
// node. Any fixed rule would do; this one minimizes spurious blocking.
const (
	priFrame = 0
	priWake  = 1
	priStep  = 2
)

// event is a queue entry: 12 bytes, all indices. Frame events carry only the
// flight-arena index (DESIGN.md §12) — the frame pointer, endpoints and
// timestamps live in the flight record; wake events read their guest target
// from the node arena's wakeG lane. The previous layout carried all of that
// inline (a 72-byte payload copied through every heap operation).
type event struct {
	kind evKind
	node int32 // evStep/evWake: the node to act on
	fi   int32 // evFrame: index into the quantum's flight arena
}

type nodePhase int32

const (
	phRunning nodePhase = iota // executing; a segment/step event is pending
	phIdle                     // blocked; a wake event is pending
	phAtLimit                  // reached the quantum boundary
)

// nodeArena holds every per-node engine field as parallel slices indexed by
// node — structure-of-arrays instead of the previous []*nodeState pointer
// farm. The layout is flat and trivially copyable (a snapshot is one copy()
// per lane, no pointer graph to chase beyond the guest nodes themselves),
// which is the substrate the roadmap's optimistic checkpoint/rollback engine
// needs; see DESIGN.md §12.
//
// Concurrency: during fast-path walks, worker goroutines touch only their
// own node's index in each lane; the engine's barrier provides the
// happens-before edge between quanta, exactly as it did for the per-node
// structs.
//
//simlint:snapshotroot one copy() per lane is the whole checkpoint contract
type nodeArena struct {
	node  []*guest.Node //simlint:snapshotsafe guest nodes are their own snapshot root; the arena lane only re-binds pointers on restore
	phase []nodePhase

	// Execution cursor: the host time corresponding to the node's position
	// at the *end* of the current segment. While a segment is in flight,
	// interpolate with the segment lanes below.
	hostNow []simtime.Host

	// Current segment (busy execution or idle wait) for interpolating the
	// node's guest position at an arbitrary host instant.
	inSeg     []bool
	segMode   []host.Mode
	segStartG []simtime.Guest
	segStartH []simtime.Host
	segEndG   []simtime.Guest
	segEndH   []simtime.Host

	wakeEv     []eventq.Handle // cancellable pending wake (zero = none)
	wakeG      []simtime.Guest // pending wake's guest target
	doneIdling []bool          // workload finished; idling to each barrier

	txFree     []simtime.Guest // guest time the NIC's transmitter frees up
	finishHost []simtime.Host  // host time the node reached the current barrier
	doneHost   []simtime.Host  // host time the workload finished
}

func newNodeArena(n int) nodeArena {
	return nodeArena{
		node:       make([]*guest.Node, n),
		phase:      make([]nodePhase, n),
		hostNow:    make([]simtime.Host, n),
		inSeg:      make([]bool, n),
		segMode:    make([]host.Mode, n),
		segStartG:  make([]simtime.Guest, n),
		segStartH:  make([]simtime.Host, n),
		segEndG:    make([]simtime.Guest, n),
		segEndH:    make([]simtime.Host, n),
		wakeEv:     make([]eventq.Handle, n),
		wakeG:      make([]simtime.Guest, n),
		doneIdling: make([]bool, n),
		txFree:     make([]simtime.Guest, n),
		finishHost: make([]simtime.Host, n),
		doneHost:   make([]simtime.Host, n),
	}
}

// flight is one frame in flight through the controller: the interned record
// an evFrame event (or a barrier batch entry) points at. Flights live in a
// per-quantum slab — every frame sent in a quantum is also routed in it, so
// the slab resets to length zero at each quantum start and reaches a steady
// state with no allocation.
type flight struct {
	f        *pkt.Frame
	src, dst int32
	tSend    simtime.Guest // guest time the frame left the source workload
	tD       simtime.Guest // exact simulated arrival time
}

// routed is one barrier-batch entry: a flight and the controller-arrival
// host time the classic engine would have dispatched it at.
type routed struct {
	h  simtime.Host
	fi int32
}

// pendDeliv is one surviving frame copy awaiting the batched per-destination
// push: the route pass classifies and records every copy in canonical order,
// then the delivery pass hands contiguous per-destination runs to the guest.
type pendDeliv struct {
	dst int32
	f   *pkt.Frame
	arr simtime.Guest
}

// engine runs one configuration.
type engine struct {
	cfg    Config
	hm     *host.Model
	na     nodeArena
	q      eventq.Queue[event]
	policy quantum.Policy
	// obs mirrors cfg.Observer; every hook site is guarded by a nil check so
	// an unobserved run builds no records and pays only the branch.
	obs obs.Observer
	// prof mirrors cfg.Profiler with the same nil-guard discipline.
	prof *prof.Profiler
	// portFree tracks, per destination, when its switch output port frees
	// up (guest time); used only when the net model has an OutputQueue.
	portFree []simtime.Guest

	// flights is the quantum's flight slab; batch, pend, delivCnt, delivOff
	// and delivSorted are the batched barrier router's reusable buffers
	// (DESIGN.md §12).
	flights     []flight
	batch       []routed
	pend        []pendDeliv
	delivCnt    []int32
	delivOff    []int32
	delivSorted []guest.Arrival
	// assembling: sendFrame ships frames into the barrier batch instead of
	// routing or queueing them. batching: deliver records surviving copies
	// in pend instead of pushing them to the guest one at a time.
	assembling bool
	batching   bool

	limit     simtime.Guest // current quantum end
	qStartH   simtime.Host  // barrier release that started the quantum
	npQuantum int           // frames routed this quantum
	strQuant  int           // stragglers this quantum
	lastEvtH  simtime.Host  // latest frame event host time this quantum

	doneCount int
	res       Result
	sumQ      float64
	firstErr  error

	// slow holds the per-node host slowdown factor from the fault plan, or
	// nil when every node runs at factor 1 — the nil check keeps the
	// fault-free path byte-identical to an engine without the feature.
	slow []float64

	// Intra-quantum fast path (DESIGN.md §7, §11). la is the per-link
	// lookahead structure: the probed node-pair latency matrix and the
	// lookahead-closed partitionings it induces per quantum size. It is
	// built for every configuration that admits lookahead (matrix mode, no
	// output tap, positive bounds) — the classic engine included — so
	// eligibility accounting, partition grades and the graded Stats fields
	// never depend on the Workers gate. Nil in scalar mode or when the
	// topology rules lookahead out.
	la *lookahead
	// eligLat is the scalar eligibility lookahead (la.min in matrix mode,
	// Net.MinLatency in scalar mode): any quantum Q <= eligLat is provably
	// free of intra-quantum arrivals cluster-wide. Zero when the
	// output-queue tap or the topology rules the fast path out entirely.
	eligLat simtime.Duration
	qElig   bool // current quantum's full (cluster-wide) eligibility
	nElig   int  // eligible quanta so far
	pool    *workerpool.Pool
	// walks is non-nil iff Workers >= 1 selected the fast-path engine; its
	// per-node buffers serve both the fully-engaged walk and the graded
	// (partitioned) quantum.
	walks []nodeWalk
	// active lists, ascending, the nodes the current quantum's walk steps:
	// the fast-walkable nodes that can act before the limit (DESIGN.md §7.1).
	// walkFn walks its k-th entry; it is built once so the per-quantum pool
	// dispatch stays allocation-free (it reads e.qStartH, which run() sets to
	// the quantum's barrier-release host time).
	active []int32
	walkFn func(int)
	// curPartit is the current quantum's partitioning (nil when unknown);
	// curPart aliases its node->partition map during a graded quantum's
	// tight-partition walks — the signal for sendFrame to defer
	// cross-partition frames to the barrier — and is nil at all other
	// times.
	curPartit *partitioning
	curPart   []int32
	// partFin is the per-partition last-finish scratch for the profiler's
	// partition-wait attribution, reused across quanta.
	partFin []simtime.Host

	// Quiet fast-forward (DESIGN.md §7.1). quietUntil[i] is node i's horizon
	// — guest.Node.QuietUntil, zero when unknown — and quietBusy[i] its mode
	// up to it. A lane entry stays valid until the node is stepped or a frame
	// is pushed to it, the two places that zero it; quietQuantum re-peeks
	// the entries the current limit has reached. quietH is their minimum as
	// of the last full scan, so a stretch in which no node acts costs one
	// comparison per quantum; a stepped quantum leaves it at or below its
	// limit, which every later limit exceeds.
	quietH      simtime.Guest
	quietUntil  []simtime.Guest
	quietBusy   []bool
	nQuiet      int // quanta executed whole by the quiet pass
	nQuietNodes int // node-quanta executed by quietNode on any path
	qi          int // current quantum's index, for the onQuiet hook
}

// minFanOut is the smallest number of active nodes per pool worker worth a
// pool hand-off: below it the walks run inline on the engine goroutine. Waking
// a worker costs about as much as two or three walks, and the sparse quanta
// this guards have one to three active nodes among dozens of quiet ones
// (DESIGN.md §7.1 has the measurements).
const minFanOut = 4

// sendRec buffers one frame sent during a fast-path walk, with the host and
// guest instants the classic engine would have seen at the send.
type sendRec struct {
	f     *pkt.Frame
	tSend simtime.Guest
	h     simtime.Host
}

// phaseRec buffers one NodePhase observer hook emitted during a walk.
type phaseRec struct {
	phase  obs.Phase
	g0, g1 simtime.Guest
	h0, h1 simtime.Host
}

// defEvent buffers one fully-computed cross-partition flight that a graded
// quantum defers to the barrier, with the controller-arrival host time the
// classic engine would have dispatched it at.
type defEvent struct {
	h  simtime.Host
	fi int32
}

// nodeWalk collects everything a fast-path node walk must publish at the
// barrier: sends to route, observer hooks to replay, and the node's
// contributions to global counters. Node-local state (finishHost, doneHost,
// phase, ...) is written straight to the node arena, which the walking
// worker owns for the duration of the quantum. Buffers are reused across
// quanta. During graded quanta the defs buffer additionally holds a tight
// node's deferred cross-partition flights.
type nodeWalk struct {
	sends  []sendRec
	phases []phaseRec
	defs   []defEvent
	busy   simtime.Duration
	idle   simtime.Duration
	done   bool
	err    error
}

// Run executes the configuration and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:    cfg,
		hm:     host.NewModel(cfg.Host),
		policy: cfg.Policy(),
		obs:    cfg.Observer,
		prof:   cfg.Profiler,
	}
	e.hm.Reserve(cfg.Nodes)
	defer e.shutdown()
	e.na = newNodeArena(cfg.Nodes)
	e.portFree = make([]simtime.Guest, cfg.Nodes)
	e.delivCnt = make([]int32, cfg.Nodes)
	e.delivOff = make([]int32, cfg.Nodes)
	e.quietUntil = make([]simtime.Guest, cfg.Nodes)
	e.quietBusy = make([]bool, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		prog := cfg.Program(i, cfg.Nodes)
		if prog == nil {
			return nil, fmt.Errorf("cluster: nil program for rank %d", i)
		}
		e.na.node[i] = guest.NewNode(i, cfg.Nodes, cfg.Guest, prog)
	}
	if fp := cfg.Faults; fp != nil && fp.HasSlowdown() {
		e.slow = make([]float64, cfg.Nodes)
		for i := range e.slow {
			e.slow[i] = fp.Slowdown(i)
		}
	}
	e.initFast()
	e.res.PolicyName = e.policy.Name()
	if err := e.run(); err != nil {
		return nil, err
	}
	if e.firstErr != nil {
		return nil, e.firstErr
	}
	return &e.res, nil
}

func (e *engine) shutdown() {
	for _, n := range e.na.node {
		if n != nil {
			n.Shutdown()
		}
	}
	if e.pool != nil {
		e.pool.Close()
	}
}

// initFast decides whether the configuration admits the intra-quantum
// parallel fast path and, if so, precomputes its safety bounds and pool.
//
// The bounds come from the per-link lookahead matrix — every pair probed
// with the cheapest possible frame (netmodel.MinProbe), generalizing the
// paper's scalar T — or, in scalar mode, from Net.MinLatency alone.
// Configurations with switch output-port contention (Net.Output) are
// excluded before the probe: the port-free state must be updated in the
// exact order the controller observes frames, which only the sequential
// event queue reproduces.
func (e *engine) initFast() {
	// The eligibility lookahead is probed for every configuration — the
	// classic engine included — so per-quantum eligibility accounting never
	// depends on the Workers gate.
	if e.cfg.Net.Output == nil {
		if e.cfg.Lookahead == LookaheadScalar {
			e.eligLat = e.cfg.Net.MinLatency(e.cfg.Nodes)
		} else if e.la = newLookahead(e.cfg.Net, e.cfg.Nodes); e.la != nil {
			e.eligLat = e.la.min
		}
	}
	if e.cfg.Workers < 1 || e.eligLat <= 0 {
		return
	}
	e.walks = make([]nodeWalk, e.cfg.Nodes)
	e.active = make([]int32, 0, e.cfg.Nodes)
	e.walkFn = func(k int) {
		i := int(e.active[k])
		e.walkNode(i, &e.walks[i], e.qStartH)
	}
	if w := e.cfg.Workers; w >= 2 {
		if w > e.cfg.Nodes {
			w = e.cfg.Nodes
		}
		e.pool = workerpool.New(w)
	}
}

func (e *engine) run() error {
	var start simtime.Guest
	var hostNow simtime.Host
	Q := e.policy.First()
	if Q <= 0 {
		return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", e.policy.Name(), Q)
	}
	if e.obs != nil {
		e.obs.RunStart(obs.RunInfo{
			Nodes:    e.cfg.Nodes,
			Policy:   e.policy.Name(),
			MaxGuest: e.cfg.MaxGuest,
		})
	}
	if e.prof != nil {
		e.prof.RunStart(prof.RunMeta{
			Engine:      "deterministic",
			Nodes:       e.cfg.Nodes,
			Policy:      e.policy.Name(),
			Lookahead:   e.eligLat,
			OutputQueue: e.cfg.Net.Output != nil,
			LinkLat: func(src, dst int) simtime.Duration {
				return e.cfg.Net.FrameLatency(netmodel.MinProbe(), src, dst)
			},
		})
	}

	nodes := e.cfg.Nodes
	for qi := 0; ; qi++ {
		e.qi = qi
		e.limit = start.Add(Q)
		e.qStartH = hostNow
		e.npQuantum = 0
		e.strQuant = 0
		e.lastEvtH = hostNow
		e.flights = e.flights[:0]
		e.batch = e.batch[:0]
		if e.obs != nil {
			e.obs.QuantumStart(qi, start, Q, hostNow)
		}
		e.qElig = e.eligLat > 0 && Q <= e.eligLat
		if e.qElig {
			e.nElig++
		}
		// The quantum's lookahead partitioning (nil in scalar mode or
		// without lookahead). Both the accounting below and the execution
		// choice derive from it, but the accounting is pure (Q, lookahead)
		// state shared verbatim by every engine path, so Stats stay
		// bit-identical across Workers values.
		var part *partitioning
		if e.la != nil {
			part = e.la.partitionFor(Q)
		}
		e.curPartit = part
		switch {
		case e.qElig:
			e.res.Stats.FastFullQuanta++
			e.res.Stats.FastNodeQuanta += nodes
		case part != nil && part.fastNodes > 0:
			e.res.Stats.FastPartialQuanta++
			e.res.Stats.FastNodeQuanta += part.fastNodes
			e.res.Stats.PartialPartitions += part.nparts
		}
		if e.prof != nil {
			e.prof.BeginQuantum(qi, Q, part.grade())
		}

		// With Q at or below the minimum network latency, nothing sent in
		// this quantum can arrive inside it (the paper's ground-truth
		// argument), so the nodes are independent until the barrier and the
		// event queue is unnecessary: walk each node to the limit — in
		// parallel when Workers >= 2 — and route all frames at the barrier.
		// Above that bound, the per-link partitioning can still leave loose
		// nodes that are independent of everyone: they are walked the same
		// way while the tight partitions fall back to the event queue.
		full := e.walks != nil && e.qElig
		graded := e.walks != nil && !e.qElig && part != nil && part.fastNodes > 0
		if e.cfg.onQuantumMode != nil {
			e.cfg.onQuantumMode(full || graded)
		}
		// Ahead of all three: when no node has an event before the limit
		// there is nothing to step, queue or route on any path, and the
		// quantum is one arithmetic pass over the nodes.
		switch {
		case e.quietQuantum():
			e.runQuantumQuiet(hostNow)
		case full:
			e.runQuantumFast(hostNow)
		case graded:
			e.runQuantumGraded(hostNow, part)
		default:
			for i := 0; i < nodes; i++ {
				e.enqueueNode(i, hostNow)
			}
			e.drainQueue()
		}

		// Barrier: wait for the slowest node and any late frames, pay the
		// barrier cost plus the controller's per-packet occupancy.
		maxH := e.lastEvtH
		for _, fh := range e.na.finishHost {
			maxH = simtime.MaxHost(maxH, fh)
		}
		barrierEnd := maxH.
			Add(e.cfg.Host.BarrierCost).
			Add(simtime.Duration(e.npQuantum) * e.cfg.Host.PacketHostCost)
		e.res.Stats.HostBarrier += barrierEnd.Sub(maxH)
		if e.prof != nil {
			// Per-node barrier wait: finishing the quantum until the last
			// arrival (the shared barrier+routing costs are attributed once,
			// below, not per node).
			for i := 0; i < nodes; i++ {
				e.prof.NodeWait(i, maxH.Sub(e.na.finishHost[i]))
			}
			e.profPartitionWaits(part, maxH)
			e.prof.EndQuantum(prof.QuantumStats{
				Span:       barrierEnd.Sub(hostNow),
				Routing:    simtime.Duration(e.npQuantum) * e.cfg.Host.PacketHostCost,
				Barrier:    e.cfg.Host.BarrierCost,
				Packets:    e.npQuantum,
				Stragglers: e.strQuant,
			})
		}

		e.recordQuantum(qi, start, Q, hostNow, maxH, barrierEnd)

		hostNow = barrierEnd
		start = e.limit

		if e.doneCount == nodes {
			break
		}
		if e.cfg.MaxGuest > 0 && start > e.cfg.MaxGuest {
			return fmt.Errorf("%w (reached %v)", ErrGuestLimit, start)
		}

		Q = e.policy.Next(quantum.Feedback{
			Packets:    e.npQuantum,
			Stragglers: e.strQuant,
			Now:        e.limit,
		})
		if Q <= 0 {
			return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", e.policy.Name(), Q)
		}
	}

	for i := 0; i < nodes; i++ {
		n := e.na.node[i]
		e.res.NodeFinish = append(e.res.NodeFinish, n.FinishedAt())
		e.res.Metrics = append(e.res.Metrics, n.Metrics())
		e.res.GuestTime = simtime.MaxGuest(e.res.GuestTime, n.FinishedAt())
		if d := e.na.doneHost[i]; simtime.Duration(d) > e.res.HostTime {
			e.res.HostTime = simtime.Duration(d)
		}
	}
	e.res.Stats.finalize(e.sumQ)
	if e.obs != nil {
		e.obs.RunEnd(obs.RunSummary{
			GuestTime:          e.res.GuestTime,
			HostEnd:            hostNow,
			Quanta:             e.res.Stats.Quanta,
			FastEligibleQuanta: e.nElig,
			QuietQuanta:        e.nQuiet,
			QuietNodeQuanta:    e.nQuietNodes,
		})
	}
	if e.prof != nil {
		e.prof.RunEnd(e.res.GuestTime, hostNow)
	}
	return nil
}

func (e *engine) recordQuantum(qi int, start simtime.Guest, Q simtime.Duration, hStart, barrierStart, hEnd simtime.Host) {
	e.res.Stats.observeQuantum(Q, e.npQuantum)
	e.sumQ += float64(Q)
	if e.cfg.TraceQuanta || e.obs != nil {
		rec := QuantumRecord{
			Index:        qi,
			Start:        start,
			Q:            Q,
			Packets:      e.npQuantum,
			Stragglers:   e.strQuant,
			HostStart:    hStart,
			BarrierStart: barrierStart,
			HostEnd:      hEnd,
			FastEligible: e.qElig,
		}
		if e.cfg.TraceQuanta {
			e.res.Quanta = append(e.res.Quanta, rec)
		}
		if e.obs != nil {
			e.obs.QuantumEnd(rec)
		}
	}
}

// enqueueNode starts node i's event-queue walk of the current quantum: the
// node is reset to the barrier release and its first step — or, for a
// finished workload, the idle stretch to the limit (OS housekeeping only) —
// is queued.
func (e *engine) enqueueNode(i int, hostNow simtime.Host) {
	n := e.na.node[i]
	n.BeginQuantum(e.limit)
	e.quietUntil[i] = 0
	e.na.phase[i] = phRunning
	e.na.hostNow[i] = hostNow
	e.na.inSeg[i] = false
	e.na.wakeEv[i] = eventq.Handle{}
	e.na.finishHost[i] = hostNow
	if n.Done() {
		e.idleTo(i, e.limit, hostNow)
		return
	}
	e.q.PushPri(int64(hostNow), priStep, event{kind: evStep, node: int32(i)})
}

// drainQueue dispatches the queued events in host-time order until the
// enqueued nodes have all reached the limit.
func (e *engine) drainQueue() {
	for e.q.Len() > 0 {
		ev := e.q.Pop()
		e.dispatch(simtime.Host(ev.Time), ev.Payload)
	}
}

//simlint:hotpath classic-walk quantum loop: every event of every quantum dispatches here
func (e *engine) dispatch(h simtime.Host, ev event) {
	switch ev.kind {
	case evStep:
		e.stepNode(int(ev.node), h)
	case evWake:
		i := int(ev.node)
		gTarget := e.na.wakeG[i]
		if e.obs != nil {
			// The idle segment's extent is only final here: deliveries may
			// have re-aimed it since idleTo, so it is reported at its end.
			e.obs.NodePhase(i, obs.PhaseIdle, e.na.segStartG[i], gTarget, e.na.segStartH[i], h)
		}
		e.na.wakeEv[i] = eventq.Handle{}
		e.na.inSeg[i] = false
		e.na.hostNow[i] = h
		e.na.node[i].WakeAt(gTarget)
		if e.na.doneIdling[i] {
			// The finished node reached the barrier.
			e.na.phase[i] = phAtLimit
			e.na.finishHost[i] = h
			return
		}
		e.na.phase[i] = phRunning
		e.stepNode(i, h)
	case evFrame:
		e.routeFlight(h, ev.fi)
	}
}

// stepNode drives a node's Step loop from host time h until the node blocks,
// starts a busy segment, reaches the limit, or finishes.
func (e *engine) stepNode(i int, h simtime.Host) {
	n := e.na.node[i]
	for {
		st := n.Step()
		switch st.Kind {
		case guest.StepBusy:
			cost := e.hostCost(i, st.From, st.To, host.Busy)
			e.res.Stats.HostBusy += cost
			if e.prof != nil {
				e.prof.Segment(i, prof.SegBusy, cost)
			}
			endH := h.Add(cost)
			e.na.inSeg[i] = true
			e.na.segMode[i] = host.Busy
			e.na.segStartG[i] = st.From
			e.na.segStartH[i] = h
			e.na.segEndG[i] = st.To
			e.na.segEndH[i] = endH
			e.na.hostNow[i] = endH
			if e.obs != nil {
				// Busy segments always run to completion, so the extent is
				// final at creation.
				e.obs.NodePhase(i, obs.PhaseBusy, st.From, st.To, h, endH)
			}
			e.q.PushPri(int64(endH), priStep, event{kind: evStep, node: int32(i)})
			return

		case guest.StepSend:
			e.sendFrame(i, h, st.To, st.Frame)
			// Sending costs no additional host time beyond the guest
			// overhead already charged; keep stepping.

		case guest.StepBlocked:
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, e.limit)
			if target <= st.To {
				// Blocked exactly at the quantum boundary.
				e.na.phase[i] = phAtLimit
				e.na.inSeg[i] = false
				e.na.finishHost[i] = h
				e.na.hostNow[i] = h
				return
			}
			e.idleTo(i, target, h)
			return

		case guest.StepLimit:
			e.na.phase[i] = phAtLimit
			e.na.inSeg[i] = false
			e.na.finishHost[i] = h
			e.na.hostNow[i] = h
			return

		case guest.StepDone:
			if st.Err != nil && e.firstErr == nil {
				e.firstErr = fmt.Errorf("cluster: rank %d: %w", i, st.Err) //simlint:hotalloc error path: fires at most once per node, at workload failure
			}
			e.doneCount++
			e.na.doneHost[i] = h
			if e.obs != nil {
				g := n.Clock()
				e.obs.NodePhase(i, obs.PhaseDone, g, g, h, h)
			}
			// The simulator keeps idling to the barrier.
			e.idleTo(i, e.limit, h)
			return
		}
	}
}

// idleTo puts the node into an idle segment from its current clock to guest
// time target, scheduling the wake event.
func (e *engine) idleTo(i int, target simtime.Guest, h simtime.Host) {
	n := e.na.node[i]
	from := n.Clock()
	if target < from {
		panic(fmt.Sprintf("cluster: node %d idling backwards %v -> %v", i, from, target))
	}
	cost := e.hostCost(i, from, target, host.Idle)
	e.res.Stats.HostIdle += cost
	if e.prof != nil {
		e.prof.Segment(i, prof.SegIdle, cost)
	}
	endH := h.Add(cost)
	e.na.phase[i] = phIdle
	e.na.inSeg[i] = true
	e.na.segMode[i] = host.Idle
	e.na.segStartG[i] = from
	e.na.segStartH[i] = h
	e.na.segEndG[i] = target
	e.na.segEndH[i] = endH
	e.na.hostNow[i] = endH
	e.na.doneIdling[i] = n.Done()
	e.na.wakeG[i] = target
	e.na.wakeEv[i] = e.q.PushPri(int64(endH), priWake, event{kind: evWake, node: int32(i)})
}

// sendFrame models the source NIC (transmit queueing + serialization),
// computes the exact simulated arrival time, and ships the frame to the
// controller in host time. In the classic engine the frame becomes an
// interned flight plus a queued 12-byte event dispatched at its
// controller-arrival host time. At the barrier (e.assembling) the flight
// joins the quantum's batch instead — every destination is already there,
// so dispatch order no longer matters and the queue round-trip is pure
// overhead. During a graded quantum's tight-partition walks
// (curPart != nil), frames crossing the current partition are deferred to
// the barrier: their destination lies across a loose link, so the arrival
// time is provably at or past the limit and routing them later is
// behavior-neutral (DESIGN.md §11).
func (e *engine) sendFrame(i int, h simtime.Host, tSend simtime.Guest, f *pkt.Frame) {
	src := i
	depart := simtime.MaxGuest(tSend, e.na.txFree[i])
	ser := e.cfg.Net.NIC.Serialization(f)
	depart = depart.Add(ser)
	e.na.txFree[i] = depart

	arrHost := h.Add(e.cfg.Host.PacketTransit)
	ship := func(dst int) { //simlint:hotalloc non-escaping closure: called and discarded inside sendFrame, stays on the stack
		fi := int32(len(e.flights))
		e.flights = append(e.flights, flight{ //simlint:hotalloc flight log grows to the per-quantum high-water mark once; length-reset each quantum
			f: f, src: int32(src), dst: int32(dst), tSend: tSend,
			tD: e.arrivalTime(f, src, dst, depart),
		})
		switch {
		case e.assembling:
			e.batch = append(e.batch, routed{h: arrHost, fi: fi}) //simlint:hotalloc assembly batch grows to its watermark once; length-reset each quantum
		case e.curPart != nil && e.curPart[dst] != e.curPart[src]:
			e.walks[src].defs = append(e.walks[src].defs, defEvent{h: arrHost, fi: fi}) //simlint:hotalloc deferred-event lane grows to its watermark once; length-reset each quantum
		default:
			e.q.PushPri(int64(arrHost), priFrame, event{kind: evFrame, fi: fi})
		}
	}
	if f.Dst.IsBroadcast() {
		for dst := 0; dst < e.cfg.Nodes; dst++ {
			if dst != src {
				ship(dst)
			}
		}
		return
	}
	dst := f.Dst.Node()
	if dst < 0 || dst >= e.cfg.Nodes {
		// A frame to an unknown MAC: the switch floods it nowhere (no
		// other ports in this cluster). Count it as routed traffic.
		e.npQuantum++
		e.res.Stats.Packets++
		return
	}
	ship(dst)
}

// arrivalTime computes the exact simulated arrival of a frame that left its
// source NIC at guest time depart, including switch output-port contention
// when the network models it. Contention state is updated in the order the
// controller observes the frames — exactly what the paper's centralized
// network timing module would do.
func (e *engine) arrivalTime(f *pkt.Frame, src, dst int, depart simtime.Guest) simtime.Guest {
	out := e.cfg.Net.Output
	if out == nil {
		return depart.Add(e.cfg.Net.PostTxLatency(f, src, dst))
	}
	atPort := depart.Add(e.cfg.Net.PreQueueLatency(f, src, dst))
	start := simtime.MaxGuest(atPort, e.portFree[dst])
	e.portFree[dst] = start.Add(out.Serialization(f))
	return e.portFree[dst].Add(e.cfg.Net.PostQueueLatency(f))
}

// hostCost is the host.Model cost scaled by the node's fault-plan slowdown
// factor; with no slowdowns (slow == nil) it is the model cost verbatim.
func (e *engine) hostCost(id int, from, to simtime.Guest, mode host.Mode) simtime.Duration {
	c := e.hm.HostCost(id, from, to, mode)
	if e.slow != nil {
		c = c.Scale(e.slow[id])
	}
	return c
}

// guestPos returns node i's guest position at host time h.
func (e *engine) guestPos(i int, h simtime.Host) simtime.Guest {
	if !e.na.inSeg[i] {
		return e.na.node[i].Clock()
	}
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
	return e.hm.GuestAt(i, e.na.segStartG[i], elapsed, e.na.segMode[i], e.na.segEndG[i])
}

// routeFlight is the controller receiving one flight at host time h: it
// counts the frame toward the quantum's traffic (drops included, so
// Algorithm 1's np==0 test still sees lost traffic), applies
// loss/duplication/jitter faults, and delivers the surviving copies per the
// paper's three cases. Every path funnels through here — the classic event
// queue dispatches it at the flight's controller-arrival host time, the
// batched barrier router calls it in canonical order — so fault outcomes,
// which are pure per-frame functions, cannot differ between paths.
func (e *engine) routeFlight(h simtime.Host, fi int32) {
	fl := e.flights[fi]
	e.npQuantum++
	e.res.Stats.Packets++
	if h > e.lastEvtH {
		e.lastEvtH = h
	}
	if e.prof != nil {
		// Slack accounting uses the ideal (pre-fault) arrival: fl.tD is not
		// yet jittered here, and every engine path routes the same flights
		// with the same (tSend, tD), so the per-link accumulators — which
		// are order-independent — match across paths exactly.
		e.prof.Frame(int(fl.src), int(fl.dst), fl.tD.Sub(fl.tSend))
	}
	if fp := e.cfg.Faults; fp != nil {
		d := fp.Decide(fl.f.ID, int(fl.src), int(fl.dst), fl.tSend)
		if d.Drop {
			e.res.Stats.Dropped++
			if e.cfg.TracePackets || e.obs != nil {
				e.emitPacket(PacketRecord{
					SendGuest: fl.tSend, Ideal: fl.tD,
					Src: int(fl.src), Dst: int(fl.dst), Size: fl.f.Size,
					Dropped: true,
				})
			}
			return
		}
		// Injected delay only ever increases the arrival time, so the fast
		// path's safety bound (tD >= limit under Q <= T) is preserved.
		base := fl.tD
		if d.Delay > 0 {
			fl.tD = base.Add(d.Delay)
		}
		if d.Dup {
			e.res.Stats.Duplicated++
			dup := fl
			dup.tD = base.Add(d.DupDelay)
			e.deliver(h, fl, false)
			e.deliver(h, dup, true)
			return
		}
	}
	e.deliver(h, fl, false)
}

// emitPacket routes one packet record to the trace slice and the observer.
func (e *engine) emitPacket(rec PacketRecord) {
	if e.cfg.TracePackets {
		e.res.Packets = append(e.res.Packets, rec) //simlint:hotalloc packet tracing is opt-in diagnostics; the trace slice is the product, not scratch
	}
	if e.obs != nil {
		e.obs.Packet(rec)
	}
}

// deliver classifies one frame copy against the destination's progress and
// hands it to the node — the tail of the paper's controller logic, shared by
// the original and any fault-injected duplicate so each copy counts
// independently in the straggler statistics. Under the batched barrier
// router (e.batching) the copy is recorded for the per-destination delivery
// pass instead of being pushed immediately; every destination is at the
// barrier then, so the idle-wake adjustments below are provably dead in
// that mode.
func (e *engine) deliver(h simtime.Host, fl flight, dupCopy bool) {
	e.res.Stats.Deliveries++

	dst := int(fl.dst)
	var arr simtime.Guest
	straggler, snapped := false, false

	if e.na.phase[dst] == phAtLimit {
		// Paper Figure 3(d): the destination already finished its quantum.
		if fl.tD < e.limit {
			arr = e.limit // snaps to the next quantum boundary
			straggler, snapped = true, true
		} else {
			arr = fl.tD // at or after the boundary: still exact
		}
	} else {
		g := e.guestPos(dst, h)
		if fl.tD >= g {
			arr = fl.tD // exact delivery (paper case 2)
		} else {
			arr = g // straggler: deliver immediately (paper case 3)
			straggler = true
		}
	}

	st := &e.res.Stats
	if straggler {
		st.Stragglers++
		e.strQuant++
		st.StragglerDelay += arr.Sub(fl.tD)
		if snapped {
			st.QuantumSnaps++
		}
	} else {
		st.Exact++
	}
	if e.cfg.TracePackets || e.obs != nil {
		e.emitPacket(PacketRecord{
			SendGuest: fl.tSend, Ideal: fl.tD, Arrival: arr,
			Src: int(fl.src), Dst: dst, Size: fl.f.Size,
			Straggler: straggler, Snapped: snapped, Duplicate: dupCopy,
		})
	}

	if e.batching {
		e.pend = append(e.pend, pendDeliv{dst: fl.dst, f: fl.f, arr: arr}) //simlint:hotalloc pending-delivery buffer grows to its watermark once; length-reset each quantum
		return
	}

	e.na.node[dst].Deliver(fl.f, arr)
	e.quietUntil[dst] = 0

	// If the destination is idling, the new arrival may change its wake
	// time: a straggler wakes it right now; an exact future arrival earlier
	// than its current target re-aims the wake.
	if e.na.phase[dst] != phIdle || e.na.doneIdling[dst] {
		return
	}
	if straggler {
		if !e.q.Remove(e.na.wakeEv[dst]) {
			panic("cluster: idle node without a cancellable wake event")
		}
		// The cancelled tail of the idle segment is never simulated.
		trunc := e.na.segEndH[dst].Sub(simtime.MaxHost(h, e.na.segStartH[dst]))
		e.res.Stats.HostIdle -= trunc
		if e.prof != nil {
			e.prof.Segment(dst, prof.SegIdle, -trunc)
		}
		if e.obs != nil {
			// Report the truncated idle segment: the straggler cut it short.
			e.obs.NodePhase(dst, obs.PhaseIdle, e.na.segStartG[dst], arr,
				e.na.segStartH[dst], simtime.MaxHost(h, e.na.segStartH[dst]))
		}
		e.na.wakeEv[dst] = eventq.Handle{}
		e.na.inSeg[dst] = false
		e.na.hostNow[dst] = h
		e.na.node[dst].WakeAt(arr)
		e.na.phase[dst] = phRunning
		e.stepNode(dst, h)
		return
	}
	if arr < e.na.segEndG[dst] {
		// Re-aim the idle segment at the earlier arrival.
		if !e.q.Remove(e.na.wakeEv[dst]) {
			panic("cluster: idle node without a cancellable wake event")
		}
		cost := e.hostCost(dst, e.na.segStartG[dst], arr, host.Idle)
		refund := e.na.segEndH[dst].Sub(e.na.segStartH[dst]) - cost
		e.res.Stats.HostIdle -= refund
		if e.prof != nil {
			e.prof.Segment(dst, prof.SegIdle, -refund)
		}
		endH := e.na.segStartH[dst].Add(cost)
		e.na.segEndG[dst] = arr
		e.na.segEndH[dst] = endH
		e.na.hostNow[dst] = endH
		e.na.wakeG[dst] = arr
		e.na.wakeEv[dst] = e.q.PushPri(int64(endH), priWake, event{kind: evWake, node: fl.dst})
	}
}

// routeBatch routes the quantum's assembled barrier batch: one pass through
// the flights in canonical (node, send-sequence) order — counters, fault
// decisions, traces and observer hooks fire here in exactly the order the
// one-at-a-time tail produced — then the surviving copies are delivered in
// per-destination contiguous runs via a stable counting sort. Delivery
// order within a destination is the batch order, and the guest receive
// queue orders by (arrival, Frame.ID, push sequence), so regrouping is
// invisible to the workload (DESIGN.md §12).
func (e *engine) routeBatch() {
	if len(e.batch) == 0 {
		return
	}
	e.pend = e.pend[:0]
	e.batching = true
	for _, b := range e.batch {
		e.routeFlight(b.h, b.fi)
	}
	e.batching = false

	cnt := e.delivCnt
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range e.pend {
		cnt[e.pend[i].dst]++
	}
	off := e.delivOff
	var sum int32
	for d := range cnt {
		off[d] = sum
		sum += cnt[d]
	}
	if cap(e.delivSorted) < len(e.pend) {
		e.delivSorted = make([]guest.Arrival, len(e.pend)) //simlint:hotalloc sort scratch grows to the high-water mark once, then reslices allocation-free
	}
	sorted := e.delivSorted[:len(e.pend)]
	for i := range e.pend {
		p := &e.pend[i]
		sorted[off[p.dst]] = guest.Arrival{Frame: p.f, Time: p.arr}
		off[p.dst]++
	}
	var start int32
	for d := range cnt {
		if cnt[d] == 0 {
			continue
		}
		e.na.node[d].DeliverBatch(sorted[start:off[d]])
		e.quietUntil[d] = 0
		start = off[d]
	}
}

// quietQuantum reports whether the current quantum is quiet: no node can
// send, complete an op, finish, or resume its workload strictly before or at
// the limit, so no externally visible event can occur in it on any engine
// path. The test is horizon > limit, strictly — an op ending exactly at the
// limit resumes the workload inside this quantum, where it may send or finish
// (DESIGN.md §7.1) — and involves only node state, so it holds or fails
// identically for every Workers and Lookahead value.
//
// A quiet stretch costs one comparison per quantum. Otherwise the scan
// re-peeks the horizons the limit has reached (stale ones included). On the
// walk engines it visits every node, so that a false return leaves the whole
// lane current for the per-node skip; the classic walk, where a frame can
// reach any node mid-quantum, steps all nodes or none and stops at the first
// active one — a packet-dominated quantum costs it one failed peek.
//
//simlint:hotpath quiet test: runs once per quantum ahead of every engine path
func (e *engine) quietQuantum() bool {
	if e.quietH > e.limit && e.cfg.onQuiet == nil {
		return true
	}
	h := simtime.GuestInfinity
	for i, n := range e.na.node {
		until := e.quietUntil[i]
		if until <= e.limit {
			until, e.quietBusy[i] = n.QuietUntil()
			e.quietUntil[i] = until
			if until <= e.limit && e.walks == nil {
				return false
			}
		}
		h = simtime.MinGuest(h, until)
	}
	e.quietH = h
	if h <= e.limit {
		return false
	}
	if e.cfg.onQuiet != nil {
		quiet := true
		for i := range e.quietUntil {
			quiet = e.sitsOut(i) && quiet
		}
		if !quiet {
			e.quietH = 0
		}
		return quiet
	}
	return true
}

// sitsOut reports whether node i is fast-forwarded through the current
// quantum: its horizon lies past the limit, and nothing can be delivered to
// it before the barrier — which the caller's path guarantees (DESIGN.md
// §7.1). The test hook's veto marks the horizon stale, which sends the node
// to its walk.
func (e *engine) sitsOut(i int) bool {
	if e.quietUntil[i] <= e.limit {
		return false
	}
	if e.cfg.onQuiet != nil && !e.cfg.onQuiet(e.qi, i) {
		e.quietUntil[i] = 0
		return false
	}
	return true
}

// satOut reports, once the quantum's walks are over, whether node i was
// skipped: stepping a node zeroes its horizon and skipping it leaves the
// horizon past the limit.
func (e *engine) satOut(i int) bool { return e.quietUntil[i] > e.limit }

// quietNode executes node i's whole quantum arithmetically: the node has no
// event before the limit, so it spends the quantum in one busy or idle
// segment ending there, which is what a stepped path would have found by
// stepping — the same hostCost call, the same charges, the same single
// NodePhase — minus the Step calls, coroutine switches, event-queue
// round-trips and walk buffers.
//
//simlint:hotpath quiet pass, one node: the whole cost of a node-quantum in which the node cannot act
func (e *engine) quietNode(i int, hostNow simtime.Host) {
	e.nQuietNodes++
	n := e.na.node[i]
	from := n.Clock()
	busy := e.quietBusy[i]
	mode, seg, ph, total := host.Idle, prof.SegIdle, obs.PhaseIdle, &e.res.Stats.HostIdle
	if busy {
		mode, seg, ph, total = host.Busy, prof.SegBusy, obs.PhaseBusy, &e.res.Stats.HostBusy
	}
	cost := e.hostCost(i, from, e.limit, mode)
	*total += cost
	end := hostNow.Add(cost)
	if e.prof != nil {
		e.prof.Segment(i, seg, cost)
	}
	if e.obs != nil {
		e.obs.NodePhase(i, ph, from, e.limit, hostNow, end)
	}
	e.na.finishHost[i] = end
	n.AdvanceQuiet(e.limit, busy)
}

// runQuantumQuiet executes one quiet quantum as a single arithmetic pass.
// Hooks fire in ascending node order whatever the Workers value; there is
// nothing to route, so the common barrier tail sees an empty batch.
func (e *engine) runQuantumQuiet(hostNow simtime.Host) {
	e.nQuiet++
	for i := range e.na.node {
		e.quietNode(i, hostNow)
	}
}

// walkActive walks the nodes listed in e.active to the barrier, on the pool
// when there is one and the list is long enough to pay for the hand-off.
func (e *engine) walkActive(hostNow simtime.Host) {
	if e.pool != nil && len(e.active) >= minFanOut*e.pool.Workers() {
		e.pool.Run(len(e.active), e.walkFn)
		return
	}
	for _, i := range e.active {
		e.walkNode(int(i), &e.walks[i], hostNow)
	}
}

// runQuantumFast executes one provably-safe quantum (Q <= eligLat): every
// node that can act before the limit is walked to the barrier independently
// — concurrently when a pool exists — and the others are fast-forwarded
// (nothing reaches a node before the barrier here, so a horizon past the
// limit is final); then the per-node effects are folded into the global
// state in node order, and all frames are routed by the batched barrier
// router in (node, send-sequence) order. That canonical order is what makes
// the run bit-identical for every Workers >= 1 value: workers only decide
// *who* walks a node, never the order anything is published.
//
//simlint:hotpath fast-path quantum loop
func (e *engine) runQuantumFast(hostNow simtime.Host) {
	e.active = e.active[:0]
	for i := range e.walks {
		if !e.sitsOut(i) {
			e.active = append(e.active, int32(i)) //simlint:hotalloc capacity is the node count, set in initFast; never grows
		}
	}
	e.walkActive(hostNow)
	for i := range e.walks {
		e.foldNode(i, hostNow)
	}
	// Barrier routing. Every destination is phAtLimit and, by the safety
	// bound, every arrival time tD is at or past the limit, so routeFlight
	// classifies each delivery as exact — the same outcome the classic
	// engine reaches for these frames, just without the event queue.
	e.assembling = true
	for _, i := range e.active {
		for _, s := range e.walks[i].sends {
			e.sendFrame(int(i), s.h, s.tSend, s.f)
		}
	}
	e.assembling = false
	e.routeBatch()
}

// foldNode publishes fast-walkable node i's quantum at the barrier: the
// quiet pass for a node that sat the quantum out, otherwise its completed
// walk buffers — stats, profiler charges, done accounting and observer
// replay. Single-threaded; called in ascending node order so the published
// order is canonical whatever worker walked the node.
func (e *engine) foldNode(i int, hostNow simtime.Host) {
	if e.satOut(i) {
		e.quietNode(i, hostNow)
		return
	}
	wk := &e.walks[i]
	e.res.Stats.HostBusy += wk.busy
	e.res.Stats.HostIdle += wk.idle
	if e.prof != nil {
		// Fold the walk's per-node charges at the barrier so the
		// profiler sees the same per-node totals as the classic path
		// without any cross-worker synchronization during the walk.
		e.prof.Segment(i, prof.SegBusy, wk.busy)
		e.prof.Segment(i, prof.SegIdle, wk.idle)
	}
	if wk.done {
		if wk.err != nil && e.firstErr == nil {
			e.firstErr = fmt.Errorf("cluster: rank %d: %w", i, wk.err) //simlint:hotalloc error path: fires at most once per node, at workload failure
		}
		e.doneCount++
	}
	if e.obs != nil {
		for _, ph := range wk.phases {
			e.obs.NodePhase(i, ph.phase, ph.g0, ph.g1, ph.h0, ph.h1)
		}
	}
}

// tightSitsOut reports whether a tight partition is skipped in the current
// quantum: it receives mid-quantum only the frames its own members send, so
// when no member can act before the limit none of them is reached before it
// either, and the partition's event-queue walk need not start.
func (e *engine) tightSitsOut(members []int32) bool {
	for _, m := range members {
		if e.quietUntil[m] <= e.limit {
			return false
		}
	}
	out := true
	for _, m := range members {
		out = e.sitsOut(int(m)) && out
	}
	return out
}

// runQuantumGraded executes one partially-engaged quantum (DESIGN.md §11):
// Q exceeds the global minimum latency, but the per-link partitioning
// leaves loose nodes whose every link has latency >= Q. Tight partitions
// run the classic event-queue walk one partition at a time — the shared
// queue then only ever holds the current partition's events, and because
// restricting a deterministic total order to a subset preserves relative
// order, each partition's walk is bit-identical to its slice of the classic
// engine's. Frames crossing partitions are deferred by sendFrame (their
// arrival is provably at or past the limit, so mid-quantum routing is
// behavior-neutral); loose nodes are fast-walked exactly as in
// runQuantumFast — concurrently when a pool exists — and everything
// publishes at the barrier in canonical node order through the batched
// router. Tight partitions and loose nodes that cannot act before the limit
// are fast-forwarded instead (DESIGN.md §7.1).
//
//simlint:hotpath graded-path quantum loop
func (e *engine) runQuantumGraded(hostNow simtime.Host, p *partitioning) {
	e.curPart = p.part
	for _, members := range p.tight {
		if e.tightSitsOut(members) {
			for _, m := range members {
				e.quietNode(int(m), hostNow)
			}
			continue
		}
		for _, m := range members {
			e.walks[m].defs = e.walks[m].defs[:0]
			e.enqueueNode(int(m), hostNow)
		}
		e.drainQueue()
	}
	e.curPart = nil

	// Loose nodes: the same independent walks as a fully-engaged quantum.
	e.active = e.active[:0]
	for _, i := range p.loose {
		if !e.sitsOut(int(i)) {
			e.active = append(e.active, i) //simlint:hotalloc capacity is the node count, set in initFast; never grows
		}
	}
	e.walkActive(hostNow)
	for _, i := range p.loose {
		e.foldNode(int(i), hostNow)
	}

	// Barrier publication in global node order: loose nodes assemble their
	// buffered sends, tight nodes enqueue their deferred cross-partition
	// flights at the controller-arrival host times the classic engine would
	// have dispatched them at; one batched route pass then handles both.
	// Every arrival time is at or past the limit and every destination is
	// at the barrier, so each delivery is exact. A node that sat out sent
	// nothing: its buffers are left over from an earlier quantum.
	e.assembling = true
	for i := range e.walks {
		switch {
		case e.satOut(i):
		case p.fastNode[i]:
			for _, s := range e.walks[i].sends {
				e.sendFrame(i, s.h, s.tSend, s.f)
			}
		default:
			for _, d := range e.walks[i].defs {
				e.batch = append(e.batch, routed{h: d.h, fi: d.fi}) //simlint:hotalloc assembly batch grows to its watermark once; length-reset each quantum
			}
		}
	}
	e.assembling = false
	e.routeBatch()
}

// profPartitionWaits charges each lookahead partition's barrier wait for
// the quantum: the release point minus the partition's last member finish.
// With an unknown partitioning the whole cluster is one partition. Derived
// purely from simulated time, so the attribution is identical for every
// Workers value and engine path.
func (e *engine) profPartitionWaits(p *partitioning, maxH simtime.Host) {
	if p == nil {
		last := e.na.finishHost[0]
		for _, fh := range e.na.finishHost[1:] {
			last = simtime.MaxHost(last, fh)
		}
		e.prof.PartitionWait(maxH.Sub(last))
		return
	}
	if cap(e.partFin) < p.nparts {
		e.partFin = make([]simtime.Host, p.nparts)
	}
	fin := e.partFin[:p.nparts]
	for i := range fin {
		fin[i] = 0
	}
	for i, fh := range e.na.finishHost {
		pid := p.part[i]
		fin[pid] = simtime.MaxHost(fin[pid], fh)
	}
	for _, f := range fin {
		e.prof.PartitionWait(maxH.Sub(f))
	}
}

// walkNode steps one node from the quantum start to the barrier without the
// event queue, mirroring stepNode/idleTo/the wake dispatch of the classic
// engine exactly. It touches only state the walking worker owns: the node,
// its index in every arena lane, and its nodeWalk buffers (host.Model
// lookups are pure, and each node's speed-memo entry is private to its
// walker). Globally visible effects are buffered in wk for the single-
// threaded barrier fold.
//
//simlint:hotpath per-node walk body, invoked through worker closures the call graph cannot follow
func (e *engine) walkNode(i int, wk *nodeWalk, hostNow simtime.Host) {
	wk.sends = wk.sends[:0]
	wk.phases = wk.phases[:0]
	wk.busy, wk.idle = 0, 0
	wk.done, wk.err = false, nil

	n := e.na.node[i]
	n.BeginQuantum(e.limit)
	e.quietUntil[i] = 0
	e.na.inSeg[i] = false
	e.na.wakeEv[i] = eventq.Handle{}
	h := hostNow

	finish := func() { //simlint:hotalloc non-escaping closure: called and discarded inside walkNode, stays on the stack
		e.na.phase[i] = phAtLimit
		e.na.finishHost[i] = h
		e.na.hostNow[i] = h
	}
	// idle mirrors idleTo plus the evWake dispatch: charge the idle cost,
	// record the phase, advance the cursor, and wake the node at target.
	// Fast-path idle segments are never truncated or re-aimed — no delivery
	// can land before the limit — so the extent is final at creation.
	idle := func(target simtime.Guest) { //simlint:hotalloc non-escaping closure: called and discarded inside walkNode, stays on the stack
		from := n.Clock()
		if target < from {
			panic(fmt.Sprintf("cluster: node %d idling backwards %v -> %v", i, from, target))
		}
		cost := e.hostCost(i, from, target, host.Idle)
		wk.idle += cost
		end := h.Add(cost)
		wk.phases = append(wk.phases, phaseRec{obs.PhaseIdle, from, target, h, end}) //simlint:hotalloc per-worker phase log grows to its watermark once; length-reset each quantum
		h = end
		e.na.doneIdling[i] = n.Done()
		n.WakeAt(target)
	}

	if n.Done() {
		// A finished workload's simulator idles through the quantum.
		idle(e.limit)
		finish()
		return
	}
	for {
		st := n.Step()
		switch st.Kind {
		case guest.StepBusy:
			cost := e.hostCost(i, st.From, st.To, host.Busy)
			wk.busy += cost
			end := h.Add(cost)
			wk.phases = append(wk.phases, phaseRec{obs.PhaseBusy, st.From, st.To, h, end}) //simlint:hotalloc per-worker phase log grows to its watermark once; length-reset each quantum
			h = end

		case guest.StepSend:
			wk.sends = append(wk.sends, sendRec{f: st.Frame, tSend: st.To, h: h}) //simlint:hotalloc per-worker send log grows to its watermark once; length-reset each quantum

		case guest.StepBlocked:
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, e.limit)
			if target <= st.To {
				// Blocked exactly at the quantum boundary.
				finish()
				return
			}
			idle(target)
			// Loop to Step() again: arrivals already in the receive queue
			// (delivered at earlier barriers) become consumable at target.

		case guest.StepLimit:
			finish()
			return

		case guest.StepDone:
			wk.done = true
			wk.err = st.Err
			e.na.doneHost[i] = h
			g := n.Clock()
			wk.phases = append(wk.phases, phaseRec{obs.PhaseDone, g, g, h, h}) //simlint:hotalloc per-worker phase log grows to its watermark once; length-reset each quantum
			// The simulator keeps idling to the barrier.
			idle(e.limit)
			finish()
			return
		}
	}
}
