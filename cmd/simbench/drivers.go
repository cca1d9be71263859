package main

import (
	"fmt"
	"runtime"
	"time"

	"clustersim/internal/eventq"
	"clustersim/internal/experiments"
	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/mpi"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workerpool"
)

// driverReps is how many times each driver loop runs; the reported unit
// cost is the median repetition.
const driverReps = 5

// drivers measures each layer's public functions directly (source D): a
// fixed-count loop with one span around it and the result kept live in
// sink. Unit costs are what the est_ metrics multiply in-situ counts by.
type drivers struct {
	scale float64
	epoch time.Time
	spans []span
	out   map[string]float64
	sink  int64
}

// n applies -ops-scale to a loop count.
func (d *drivers) n(count int) int { return scaled(count, d.scale) }

// measure runs loop driverReps times and records the median cost of one
// unit under name; loop returns how many units it performed. div converts
// nanoseconds to the metric's unit (1 for ns, 1e3 for us).
func (d *drivers) measure(name string, div float64, loop func() (units int, err error)) error {
	id := len(d.spans)
	d.spans = append(d.spans, span{Name: name, Parent: 0, StartNS: time.Since(d.epoch).Nanoseconds()})
	var costs []float64
	for rep := 0; rep < driverReps; rep++ {
		t0 := time.Now()
		units, err := loop()
		el := time.Since(t0)
		if err != nil {
			return fmt.Errorf("driver %s: %w", name, err)
		}
		costs = append(costs, float64(el.Nanoseconds())/float64(units)/div)
	}
	d.spans[id].EndNS = time.Since(d.epoch).Nanoseconds()
	d.spans[id].Count = driverReps
	d.out[name] = median(costs)
	return nil
}

// runDrivers measures every D metric once.
func runDrivers(scale float64) (map[string]float64, []span, error) {
	d := &drivers{scale: scale, epoch: time.Now(), out: map[string]float64{}}
	d.spans = []span{{Name: "bench.drivers", Parent: -1}}
	for _, run := range []func() error{
		d.eventq, d.guest, d.msg, d.mpi, d.netmodel, d.host, d.quantum, d.faults, d.workerpool,
	} {
		if err := run(); err != nil {
			return nil, nil, err
		}
	}
	d.spans[0].EndNS = time.Since(d.epoch).Nanoseconds()
	return d.out, d.spans, nil
}

func (d *drivers) eventq() error {
	// A churning queue at the engine's typical depths: one push and one
	// pop per unit, steady state allocation-free.
	for _, depth := range []int{8, 64} {
		var q eventq.Queue[int]
		for i := 0; i < depth; i++ {
			q.Push(int64(i*7919%1000), i)
		}
		n := d.n(500_000)
		err := d.measure(fmt.Sprintf("eventq.pushpop_ns_d%d", depth), 1, func() (int, error) {
			for i := 0; i < n; i++ {
				q.Push(int64(i*7919%1000), i)
				d.sink += int64(q.Pop().Payload)
			}
			return n, nil
		})
		if err != nil {
			return err
		}
	}
	// The wake-event pattern: push a timer, cancel the previous one.
	var q eventq.Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(int64(i*7919%1000), i)
	}
	var last eventq.Handle
	n := d.n(1_000_000)
	return d.measure("eventq.pushremove_ns_d64", 1, func() (int, error) {
		for i := 0; i < n; i++ {
			h := q.Push(int64(i%1000), i)
			if q.Remove(last) {
				d.sink++
			}
			last = h
		}
		return n, nil
	})
}

func (d *drivers) guest() error {
	cfg := guest.DefaultConfig()
	// The ground-truth walk: a compute-only program stepped through 1us
	// quanta, so most Steps charge busy time or hit the limit and every
	// 100th resumes the workload coroutine.
	quanta := d.n(500_000)
	err := d.measure("guest.step_ns", 1, func() (int, error) {
		node := guest.NewNode(0, 1, cfg, func(p *guest.Proc) error {
			for {
				p.Compute(100 * simtime.Microsecond)
			}
		})
		defer node.Shutdown()
		steps := 0
		for q := 1; q <= quanta; q++ {
			node.BeginQuantum(simtime.Guest(q) * simtime.Guest(simtime.Microsecond))
			for {
				st := node.Step()
				steps++
				if st.Kind == guest.StepLimit {
					break
				}
				d.sink += int64(st.To)
			}
		}
		return steps, nil
	})
	if err != nil {
		return err
	}
	// The barrier router's per-destination tail: DeliverBatch of 16 frames,
	// then the receiver steps until it has consumed them.
	const batchLen = 16
	batches := d.n(8_000)
	return d.measure("guest.deliver_batch_ns_per_frame", 1, func() (int, error) {
		node := guest.NewNode(0, 2, cfg, func(p *guest.Proc) error {
			for {
				d.sink += int64(p.Recv().Frame.ID)
			}
		})
		defer node.Shutdown()
		node.BeginQuantum(simtime.GuestInfinity)
		frames := make([]pkt.Frame, batchLen)
		batch := make([]guest.Arrival, batchLen)
		id := uint64(0)
		for b := 0; b < batches; b++ {
			now := node.Clock()
			for i := range batch {
				id++
				frames[i] = pkt.Frame{Src: pkt.NodeMAC(1), Dst: pkt.NodeMAC(0), Size: 4000, ID: id}
				batch[i] = guest.Arrival{Frame: &frames[i], Time: now}
			}
			node.DeliverBatch(batch)
			for node.Step().Kind != guest.StepBlocked {
			}
		}
		return batches * batchLen, nil
	})
}

// loopback runs size ranks of prog over a zero-latency wire: a minimal
// sequential discrete-event loop over the guest package's public stepping
// API (always step the rank with the earliest next event), with none of the
// engine's host-time, quantum or routing work. It returns the frames
// carried.
func loopback(size int, prog func(rank, size int) guest.Program) (frames int, err error) {
	type rank struct {
		node    *guest.Node
		blocked bool
		wake    simtime.Guest
	}
	ranks := make([]rank, size)
	for i := range ranks {
		ranks[i].node = guest.NewNode(i, size, guest.DefaultConfig(), prog(i, size))
		ranks[i].node.BeginQuantum(simtime.GuestInfinity)
		defer ranks[i].node.Shutdown()
	}
	for done := 0; done < size; {
		pick, key := -1, simtime.GuestInfinity
		for i := range ranks {
			r := &ranks[i]
			at := r.node.Clock()
			if r.blocked {
				at = r.wake
			}
			if !r.node.Done() && at < key {
				pick, key = i, at
			}
		}
		if pick < 0 {
			return frames, fmt.Errorf("loopback: every unfinished rank is blocked with nothing in flight")
		}
		r := &ranks[pick]
		if r.blocked {
			r.node.WakeAt(r.wake)
			r.blocked = false
		}
		switch st := r.node.Step(); st.Kind {
		case guest.StepSend:
			frames++
			dst := &ranks[st.Frame.Dst.Node()]
			dst.node.Deliver(st.Frame, st.To)
			dst.blocked = false
		case guest.StepBlocked:
			r.blocked = true
			r.wake = simtime.MinGuest(st.NextArrival, st.Deadline)
		case guest.StepDone:
			if st.Err != nil {
				return frames, st.Err
			}
			done++
		case guest.StepLimit:
			return frames, fmt.Errorf("loopback: rank %d hit a quantum limit", pick)
		}
	}
	return frames, nil
}

// streamProgram sends blocks x perBlock messages of the given size from
// rank 0 to rank 1; rank 1 answers each block with an empty token. Blocks
// keep a reliable sender inside its retransmission timer, so the reliable
// variant measures acks, not spurious retransmits (checked).
func streamProgram(blocks, perBlock, size int, reliable bool) func(rank, size int) guest.Program {
	return func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			cfg := msg.DefaultConfig()
			cfg.Reliable = reliable
			ep := msg.NewWithConfig(p, cfg)
			for b := 0; b < blocks; b++ {
				if rank == 0 {
					for i := 0; i < perBlock; i++ {
						ep.Send(1, 1, size)
					}
					ep.Recv(1, 2)
				} else {
					for i := 0; i < perBlock; i++ {
						ep.Recv(0, 1)
					}
					ep.Send(0, 2, 0)
				}
			}
			if err := ep.Flush(); err != nil {
				return err
			}
			ep.Drain(100 * simtime.Microsecond)
			if _, re, _ := ep.ReliabilityStats(); re != 0 {
				return fmt.Errorf("rank %d retransmitted %d messages on a lossless wire", rank, re)
			}
			return nil
		}
	}
}

func (d *drivers) msg() error {
	blocks := d.n(512)
	for _, v := range []struct {
		name     string
		reliable bool
	}{{"msg.ns_per_frame", false}, {"msg.ns_per_frame_reliable", true}} {
		err := d.measure(v.name, 1, func() (int, error) {
			return loopback(2, streamProgram(blocks, 8, 32<<10, v.reliable))
		})
		if err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	msgs := blocks * 8
	runtime.ReadMemStats(&m0)
	if _, err := loopback(2, streamProgram(blocks, 8, 64<<10, false)); err != nil {
		return fmt.Errorf("driver msg.allocs_per_msg_64k: %w", err)
	}
	runtime.ReadMemStats(&m1)
	d.out["msg.allocs_per_msg_64k"] = float64(m1.Mallocs-m0.Mallocs) / float64(msgs)
	return nil
}

func (d *drivers) mpi() error {
	rounds := d.n(500)
	collective := func(call func(c *mpi.Comm)) func() (int, error) {
		return func() (int, error) {
			_, err := loopback(8, func(rank, size int) guest.Program {
				return func(p *guest.Proc) error {
					c := mpi.New(p)
					for r := 0; r < rounds; r++ {
						call(c)
					}
					return nil
				}
			})
			return rounds, err
		}
	}
	if err := d.measure("mpi.alltoall8_us", 1e3, collective(func(c *mpi.Comm) { c.Alltoall(8 << 10) })); err != nil {
		return err
	}
	return d.measure("mpi.allreduce8_us", 1e3, collective(func(c *mpi.Comm) { c.Allreduce(64) }))
}

func (d *drivers) netmodel() error {
	frame := &pkt.Frame{Size: 4000}
	n := d.n(2_000_000)
	latency := func(m *netmodel.Model, nodes int) func() (int, error) {
		return func() (int, error) {
			for i := 0; i < n; i++ {
				d.sink += int64(m.FrameLatency(frame, i%nodes, (i+1)%nodes))
			}
			return n, nil
		}
	}
	if err := d.measure("netmodel.frame_latency_ns", 1, latency(netmodel.Paper(), 8)); err != nil {
		return err
	}
	fat := netmodel.Paper()
	fat.Switch = &netmodel.FatTreeSwitch{Radix: 4, EdgeLatency: 500 * simtime.Nanosecond, CoreLatency: 2 * simtime.Microsecond}
	if err := d.measure("netmodel.frame_latency_fattree_ns", 1, latency(fat, 64)); err != nil {
		return err
	}
	// The probe graded-mixedwan64 pays once per run (and once per set-up).
	wan := netmodel.Paper()
	sw, err := experiments.ParseTopo("mixedwan:4:500ns:2us")
	if err != nil {
		return err
	}
	wan.Switch = sw
	probes := d.n(500)
	return d.measure("netmodel.lookahead_matrix64_us", 1e3, func() (int, error) {
		for i := 0; i < probes; i++ {
			d.sink += int64(len(wan.LookaheadMatrix(64)))
		}
		return probes, nil
	})
}

func (d *drivers) host() error {
	m := host.NewModel(host.DefaultParams())
	m.Reserve(8)
	n := d.n(400_000)
	// One jitter window: what every node pays per ground-truth quantum.
	err := d.measure("host.hostcost_window_ns", 1, func() (int, error) {
		for i := 0; i < n; i++ {
			g := simtime.Guest(i%1000) * 10
			d.sink += int64(m.HostCost(i%8, g, g+5000, host.Busy))
		}
		return n, nil
	})
	if err != nil {
		return err
	}
	// A 1000us quantum spans 100 jitter windows.
	long := d.n(5_000)
	err = d.measure("host.hostcost_long_ns", 1, func() (int, error) {
		for i := 0; i < long; i++ {
			g := simtime.Guest(i%16) * simtime.Guest(simtime.Millisecond)
			d.sink += int64(m.HostCost(i%8, g, g+simtime.Guest(simtime.Millisecond), host.Busy))
		}
		return long, nil
	})
	if err != nil {
		return err
	}
	limit := simtime.Guest(100 * simtime.Microsecond)
	cost := m.HostCost(3, 0, limit, host.Busy)
	at := d.n(80_000)
	return d.measure("host.guestat_ns", 1, func() (int, error) {
		for i := 0; i < at; i++ {
			d.sink += int64(m.GuestAt(3, 0, cost/2, host.Busy, limit))
		}
		return at, nil
	})
}

func (d *drivers) quantum() error {
	a := quantum.NewAdaptive(simtime.Microsecond, 1000*simtime.Microsecond, 1.03, 0.02)
	d.sink += int64(a.First())
	n := d.n(10_000_000)
	return d.measure("quantum.next_ns", 1, func() (int, error) {
		var fb quantum.Feedback
		for i := 0; i < n; i++ {
			// Mostly silent quanta with a burst every 16th, so the policy
			// both grows and collapses.
			fb.Packets = 0
			if i&15 == 0 {
				fb.Packets = 3
			}
			d.sink += int64(a.Next(fb))
		}
		return n, nil
	})
}

func (d *drivers) faults() error {
	plan, err := faults.Parse("loss=0.02,dup=0.005,jitter=5us", 1)
	if err != nil {
		return err
	}
	n := d.n(800_000)
	return d.measure("faults.decide_ns", 1, func() (int, error) {
		for i := 0; i < n; i++ {
			dec := plan.Decide(uint64(i), i&7, (i+3)&7, simtime.Guest(i))
			d.sink += int64(dec.Delay)
		}
		return n, nil
	})
}

func (d *drivers) workerpool() error {
	var slots [64]int64
	n := d.n(40_000)
	for _, w := range []int{1, 2} {
		pool := workerpool.New(w)
		err := d.measure(fmt.Sprintf("workerpool.run64_w%d_us", w), 1e3, func() (int, error) {
			for i := 0; i < n; i++ {
				pool.Run(len(slots), func(k int) { slots[k]++ })
			}
			return n, nil
		})
		pool.Close()
		if err != nil {
			return err
		}
	}
	d.sink += slots[0]
	return nil
}
