package cluster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
)

type pnodeState int

const (
	pnRunning pnodeState = iota
	pnParked             // blocked at the quantum boundary, wakeable by delivery
	pnAtLimit            // reached the boundary executing; waits for the barrier
	pnDone               // workload finished
)

type pnode struct {
	n      *guest.Node
	state  pnodeState // guarded by prun.mu
	txFree simtime.Guest
	// wake is this node's private wakeup hint (buffered 1): delivery unpark
	// or stale-park flush at quantum end. All state decisions are re-checked
	// under prun.mu; the channel only bounds who gets woken. A delivery
	// therefore wakes exactly its destination goroutine — never the whole
	// cluster, as the previous cond.Broadcast barrier did.
	wake chan struct{}
	// start carries the controller's quantum-generation signal (a negative
	// value means shutdown). Strict alternation — the node consumes one
	// token per quantum before it can arrive at the barrier, and the
	// controller sends the next only after every node has arrived — keeps
	// the 1-buffer from ever blocking a send. The channel handoff is also
	// the happens-before edge under which the node reads its limit below,
	// so quantum entry costs no controller-mutex round-trip at all.
	start chan int
	// limit caches the current quantum's boundary: written by the
	// controller before it posts the start token, read by the owning
	// goroutine after consuming it.
	limit simtime.Guest
	// stepping is set while the workload runs inside Step; the node's own
	// goroutine is its only reader.
	stepping bool
	// spinPerBusy is real nanoseconds of CPU burned per guest busy
	// nanosecond for this node: RunParallel's spinPerGuestBusy times the
	// fault plan's slowdown factor. Immutable after construction.
	spinPerBusy float64

	// The node's one owner is this pnode's goroutine: guest.Node takes no
	// lock, so the router never touches it. The router appends each frame
	// copy to inbox under prun.mu and sets mail; the owner drains the inbox
	// into the node before every Step, so an empty mailbox costs it one atomic
	// load. spare is the owner's drained buffer, which the next drain swaps in.
	inbox, spare []posted
	mail         atomic.Bool
	// pos is the node's guest clock as the owner last published it, after
	// every Step and WakeAt: what the router classifies a delivery against.
	pos atomic.Int64
}

// prun is the shared state of one parallel run. The controller mutex guards
// node states, the embedded controller — routing, classification and the
// per-quantum counters: the centralized network controller of the paper —
// and the barrier bookkeeping. Synchronization around it is channel-based:
// barrier signals flow point-to-point instead of broadcast-waking all N
// goroutines on every delivery and arrival.
type prun struct {
	// startWall is the epoch for hook host times; set before any goroutine
	// can fire a hook.
	startWall time.Time

	mu sync.Mutex
	controller
	// barrier tells the controller the quantum may be over: the last arrival
	// (or a failing node) posts one token. Buffered 1, non-blocking sends;
	// the controller re-checks the arrival count under mu, so a stale token
	// costs one spurious re-check, never a missed release.
	barrier chan struct{}

	nodes   []*pnode
	gen     int  // quantum generation counter
	stop    bool // shutdown flag
	atLimit int  // nodes parked, at-limit or done this quantum
	done    int
	// firstArr is the host time of this quantum's first barrier arrival;
	// haveArr gates it. The span from firstArr to the barrier release is the
	// real synchronization wait charged to Stats.HostBarrier.
	firstArr simtime.Host
	haveArr  bool
	wErr     error
}

// RunParallel executes cfg with real parallelism: one OS-scheduled goroutine
// per simulated node, synchronized by a real barrier, exchanging frames
// through a mutex-guarded controller — the shape of the paper's actual
// deployment (N SimNow processes + a network controller process).
//
// It validates cfg as Run does and reads every field but Host and Speeds: its
// host is the machine it runs on. spinPerGuestBusy is the real nanoseconds of
// CPU burned per guest nanosecond of busy execution, the real-time analogue
// of Host.BusySlowdown (zero runs at full speed), and a fault plan's slowdown
// factors scale it per node. Guest idle is free (a blocked simulator reaches
// its quantum boundary at once), the limiting case of IdleSlowdown → 0.
//
// Wall-clock time is real and straggler races come from the Go scheduler, so
// results vary run to run exactly as the paper's did, although fault
// decisions are the same pure functions Run draws. Result.HostTime is the
// measured wall time; host times in the hooks are real nanoseconds since the
// run started. Node goroutines fire NodePhase concurrently, so the observer
// must be safe for concurrent use (all bundled obs implementations are). A
// profiler on the stream reports measurements: the barrier is first-arrival
// to release, a node's wait runs from its last busy segment to the release,
// and idle is always zero.
func RunParallel(cfg Config, spinPerGuestBusy float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Held to what host.Params.Validate asks of BusySlowdown (zero, "no
	// spinning", aside): NaN compares false against every bound and would
	// spin for a garbage duration.
	if s := spinPerGuestBusy; !(s >= 0) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("cluster: spinPerGuestBusy must be non-negative and finite, got %v", s)
	}
	nodes, err := newNodes(cfg.Nodes, cfg.Guest, cfg.Program)
	if err != nil {
		return nil, err
	}
	r := &prun{
		controller: newController(cfg.Nodes, cfg.Net, cfg.Faults, cfg.sink()),
		barrier:    make(chan struct{}, 1),
	}
	for i, n := range nodes {
		spinPer := spinPerGuestBusy
		if cfg.Faults != nil {
			// A slowed node burns proportionally more real CPU per guest
			// nanosecond — the wall-clock analogue of the deterministic
			// engine's scaled host costs.
			spinPer *= cfg.Faults.Slowdown(i)
		}
		r.nodes = append(r.nodes, &pnode{
			n:           n,
			wake:        make(chan struct{}, 1),
			start:       make(chan int, 1),
			spinPerBusy: spinPer,
		})
	}
	policy := cfg.Policy()
	r.startWall = time.Now() //simlint:wallclock the real-time runner measures actual wall time by design; the deterministic engine models it instead
	r.runStart(policy.Name(), true, cfg.MaxGuest)

	var wg sync.WaitGroup
	for _, pn := range r.nodes {
		wg.Add(1)
		go func(pn *pnode) {
			defer wg.Done()
			r.nodeLoop(pn)
		}(pn)
	}

	var guestStart simtime.Guest
	Q := policy.First()
	// live and parked are the controller's per-quantum scratch: the nodes
	// to start, and the subset that ended the previous quantum parked (they
	// wait on their wake channel inside park, not on the start channel).
	live := make([]*pnode, 0, cfg.Nodes)
	parked := make([]*pnode, 0, cfg.Nodes)
	err = func() error {
		for qi := 0; ; qi++ {
			if Q <= 0 {
				return fmt.Errorf("cluster: policy %q issued non-positive quantum %v", policy.Name(), Q)
			}
			r.mu.Lock()
			qStartH := r.hostNow()
			r.beginQuantum(qi, guestStart, Q, qStartH)
			// Nodes that finished in earlier quanta stand permanently at the
			// barrier; pre-counting them keeps the arrival count consistent
			// however unevenly the workloads drain.
			r.atLimit = r.done
			r.haveArr = false
			live, parked = live[:0], parked[:0]
			for _, pn := range r.nodes {
				if pn.state != pnDone {
					if pn.state == pnParked {
						parked = append(parked, pn)
					}
					pn.n.BeginQuantum(r.limit)
					pn.state = pnRunning
					pn.limit = r.limit
					live = append(live, pn)
				}
			}
			r.gen++
			gen := r.gen
			// Parked nodes wait inside park on their wake channel; flush
			// them now that the generation has advanced (park re-checks gen
			// under mu, sees the new one and falls through to nodeLoop).
			for _, pn := range parked {
				wakeNode(pn)
			}
			r.mu.Unlock()
			// Start the quantum outside the lock: each node begins stepping
			// the moment its token lands instead of the whole cluster piling
			// up on the controller mutex to read the new generation. Strict
			// alternation (every live node consumed its previous token before
			// arriving, and the controller only got here after all arrived)
			// keeps the buffered send from ever blocking.
			for _, pn := range live {
				pn.start <- gen
			}
			r.mu.Lock()
			for r.atLimit < len(r.nodes) && r.wErr == nil {
				r.mu.Unlock()
				<-r.barrier
				r.mu.Lock()
			}
			if r.wErr != nil {
				r.mu.Unlock()
				return r.wErr
			}
			r.recordQuantum(qi, guestStart, Q, qStartH)
			allDone := r.done == len(r.nodes)
			np, str := r.np, r.str
			r.mu.Unlock()
			guestStart = r.limit
			if allDone {
				return nil
			}
			if cfg.MaxGuest > 0 && guestStart > cfg.MaxGuest {
				return fmt.Errorf("%w (reached %v)", ErrGuestLimit, guestStart)
			}
			Q = policy.Next(quantum.Feedback{Packets: np, Stragglers: str, Now: guestStart})
		}
	}()

	// Shut the node goroutines down (normal completion leaves them waiting
	// for the next generation). The wake flush unblocks anything parked
	// mid-quantum after an error; closing the start channels ends every
	// nodeLoop (each buffer is provably drained, see the start send above).
	r.mu.Lock()
	r.stop = true
	for _, pn := range r.nodes {
		wakeNode(pn)
	}
	r.mu.Unlock()
	for _, pn := range r.nodes {
		close(pn.start)
	}
	wg.Wait()
	for _, pn := range r.nodes {
		pn.n.Shutdown()
	}

	hostEnd := r.hostNow()
	res := &Result{HostTime: simtime.Duration(hostEnd), Stats: r.stats, PolicyName: policy.Name()}
	res.Stats.finalize(r.sumQ)
	for _, pn := range r.nodes {
		res.NodeFinish = append(res.NodeFinish, pn.n.FinishedAt())
		res.Metrics = append(res.Metrics, pn.n.Metrics())
		res.GuestTime = simtime.MaxGuest(res.GuestTime, pn.n.FinishedAt())
	}
	if err != nil {
		res.GuestTime = guestStart // where the run was given up; res is not returned
	}
	r.runEnd(err, res.GuestTime, hostEnd, 0, 0)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// wakeNode posts a wakeup hint to pn. Non-blocking: a token already in the
// buffer guarantees the node will re-check its state, so a second is
// redundant.
func wakeNode(pn *pnode) {
	select {
	case pn.wake <- struct{}{}:
	default:
	}
}

// arrive records pn at the barrier (parked, at-limit or done). Called with
// mu held. The last arrival releases the controller.
func (r *prun) arrive(pn *pnode) {
	r.atLimit++
	if !r.haveArr {
		r.haveArr = true
		r.firstArr = r.hostNow()
	}
	if r.atLimit == len(r.nodes) {
		r.signalController()
	}
}

// signalController posts the barrier token (non-blocking; buffered 1).
func (r *prun) signalController() {
	select {
	case r.barrier <- struct{}{}:
	default:
	}
}

// hostNow is the hook host clock: real nanoseconds since the run started.
func (r *prun) hostNow() simtime.Host {
	//simlint:guestwall hostNow is the sanctioned wall→host bridge: the real-time runner's host clock IS the wall clock
	return simtime.Host(time.Since(r.startWall).Nanoseconds()) //simlint:wallclock see above; observer host timestamps come from here
}

func (r *prun) recordQuantum(qi int, start simtime.Guest, Q simtime.Duration, qStartH simtime.Host) {
	end := r.hostNow()
	// The barrier span runs from the first arrival to the release that is
	// happening right now. A quantum whose nodes all arrived "at once" (or
	// where every node was already done) collapses to the end instant.
	bStart := end
	if r.haveArr && r.firstArr < end {
		bStart = r.firstArr
	}
	r.stats.HostBarrier += end.Sub(bStart)
	r.endQuantum(qi, start, Q, qStartH, bStart, end, 0)
}

// nodeLoop drives one node across quanta. Quantum entry is a single channel
// receive: the start token carries the generation and publishes pn.limit
// (written by the controller before the send), so the node never touches the
// controller mutex until it has something to report. A workload that panics
// fails the run the way one that returns an error does; a panic outside guest
// code is the runner's own and propagates.
func (r *prun) nodeLoop(pn *pnode) {
	var gen int
	defer func() {
		if !pn.stepping {
			return
		}
		p := recover()
		r.mu.Lock()
		if r.wErr == nil {
			r.wErr = fmt.Errorf("cluster: rank %d panicked in quantum %d: %v", pn.n.ID(), gen-1, p)
		}
		r.signalController()
		r.mu.Unlock()
	}()
	for {
		var ok bool
		if gen, ok = <-pn.start; !ok {
			return // shutdown
		}
		if done := r.runQuantum(pn, gen); done {
			return
		}
	}
}

// runQuantum advances pn until it reaches the quantum boundary (possibly
// parking and being re-woken by deliveries) or its workload finishes. It
// reports whether the workload finished.
func (r *prun) runQuantum(pn *pnode, gen int) bool {
	for {
		r.drain(pn)
		pn.stepping = true
		st := pn.n.Step()
		pn.stepping = false
		pn.publish()
		switch st.Kind {
		case guest.StepBusy:
			var h0 simtime.Host
			if r.obs != nil {
				h0 = r.hostNow()
			}
			//simlint:guestwall guest busy-time is deliberately exchanged for real CPU burn, scaled by spinPerBusy
			spin(time.Duration(float64(st.To.Sub(st.From)) * pn.spinPerBusy))
			if r.obs != nil {
				r.obs.NodePhase(pn.n.ID(), obs.PhaseBusy, st.From, st.To, h0, r.hostNow())
			}

		case guest.StepSend:
			r.route(pn, st.Frame, st.To)

		case guest.StepBlocked:
			// pn.limit is the node-local copy of this quantum's boundary —
			// no controller-mutex round-trip on the hot blocked path.
			target := simtime.MinGuest(st.NextArrival, st.Deadline)
			target = simtime.MinGuest(target, pn.limit)
			if target > st.To {
				if pn.mail.Load() {
					continue // step again with what came in since the drain
				}
				// Idle simulation is effectively free in real time: jump.
				pn.n.WakeAt(target)
				pn.publish()
				continue
			}
			// Blocked at the boundary with nothing deliverable: park.
			if !r.park(pn, gen) {
				return false // quantum ended (or shutdown) while parked
			}
			// Re-woken by a delivery: keep stepping.

		case guest.StepLimit:
			r.mu.Lock()
			pn.state = pnAtLimit
			r.arrive(pn)
			r.mu.Unlock()
			return false

		case guest.StepDone:
			if r.obs != nil {
				h := r.hostNow()
				r.obs.NodePhase(pn.n.ID(), obs.PhaseDone, st.To, st.To, h, h)
			}
			r.mu.Lock()
			if st.Err != nil && r.wErr == nil {
				r.wErr = fmt.Errorf("cluster: rank %d: %w", pn.n.ID(), st.Err)
				r.signalController() // fail the run even with nodes still out
			}
			pn.state = pnDone
			r.done++
			r.arrive(pn)
			r.mu.Unlock()
			return true
		}
	}
}

// posted is a frame copy in a node's mailbox and the guest time it arrives.
type posted struct {
	f   pkt.Frame
	arr simtime.Guest
}

// drain hands the frames routed to pn since the last drain to its node. Only
// pn's own goroutine calls it.
func (r *prun) drain(pn *pnode) {
	if !pn.mail.Load() {
		return
	}
	r.mu.Lock()
	in := pn.inbox
	pn.inbox, pn.spare = pn.spare[:0], in
	pn.mail.Store(false)
	r.mu.Unlock()
	for i := range in {
		pn.n.Deliver(&in[i].f, in[i].arr)
	}
}

// publish makes the node's clock the position the router classifies against.
func (pn *pnode) publish() { pn.pos.Store(int64(pn.n.Clock())) }

// park blocks pn at the quantum boundary. It reports true if the node was
// re-woken by a delivery within the same quantum (continue stepping) and
// false if the quantum ended or the run is shutting down.
func (r *prun) park(pn *pnode, gen int) bool {
	r.mu.Lock()
	pn.state = pnParked
	r.arrive(pn)
	for pn.state == pnParked && r.gen == gen && !r.stop {
		r.mu.Unlock()
		<-pn.wake
		r.mu.Lock()
	}
	ok := pn.state == pnRunning && r.gen == gen && !r.stop
	r.mu.Unlock()
	return ok
}

// route ships one frame through the controller, with the destination's
// published position deciding stragglerhood — the real race the deterministic
// engine models.
func (r *prun) route(pn *pnode, f *pkt.Frame, tSend simtime.Guest) {
	src := pn.n.ID()
	depart := r.depart(&pn.txFree, tSend, f)

	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi, skip := r.fanOut(src, f)
	for dst := lo; dst < hi; dst++ {
		if dst == skip {
			continue
		}
		fl := flight{f: *f, src: int32(src), dst: int32(dst), tSend: tSend, tD: r.arrival(f, src, dst, depart)}
		tDs, n := r.controller.route(&fl)
		for k := 0; k < n; k++ {
			r.deliverCopy(&fl, tDs[k], k == 1)
		}
	}
}

// deliverCopy classifies one frame copy, due at tD, against the destination's
// live state and posts it to the destination's mailbox. The caller holds r.mu.
func (r *prun) deliverCopy(fl *flight, tD simtime.Guest, dupCopy bool) {
	dn := r.nodes[fl.dst]
	atBarrier := dn.state != pnRunning
	var pos simtime.Guest
	if !atBarrier {
		pos = simtime.Guest(dn.pos.Load())
	}
	arr, _ := r.deliver(fl, tD, atBarrier, pos, dupCopy)
	dn.inbox = append(dn.inbox, posted{f: fl.f, arr: arr})
	dn.mail.Store(true)
	// A parked destination that can now make progress is re-woken —
	// point-to-point, leaving every other node undisturbed.
	if dn.state == pnParked && arr <= r.limit {
		dn.state = pnRunning
		r.atLimit--
		wakeNode(dn)
	}
}

// spin burns real CPU for d, the real-time analogue of simulation slowdown:
// the clock read is both the work and the exit test.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now() //simlint:wallclock spin burns real CPU time; the clock read is the loop's termination condition
	for time.Since(start) < d {
	}
}
