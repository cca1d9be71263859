package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// runParallel runs cfg on the goroutine runner with the sinks attached and
// fails t on a run error.
func runParallel(t *testing.T, cfg Config, spin float64, sinks ...obs.Observer) *Result {
	t.Helper()
	cfg.Observer = obs.Multi(sinks...)
	res, err := RunParallel(cfg, spin)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestParallelPhasesCompletes(t *testing.T) {
	w := workloads.Phases(4, 200*simtime.Microsecond, 16<<10)
	res := runParallel(t, testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)), 0.02)
	if _, ok := res.Metric("time_s"); !ok || res.Stats.Packets == 0 || res.HostTime <= 0 || res.HostTime > 30*simtime.Second {
		t.Errorf("parallel run: time_s reported: %v, %d packets, wall time %v", ok, res.Stats.Packets, res.HostTime)
	}
}

func TestParallelNASCompletesAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel NAS run is slow")
	}
	ep := workloads.DefaultEP()
	ep.SerialCompute = ep.SerialCompute.Scale(0.02)
	for _, w := range []workloads.Workload{workloads.EP(ep), workloads.PingPong(20, 4000)} {
		if res := runParallel(t, testConfig(4, w, fixed(100*simtime.Microsecond)), 0.01); res.GuestTime == 0 {
			t.Errorf("%s: zero guest time", w.Name)
		}
	}
}

// stuck: rank 0 waits for a frame nobody sends.
func stuck() workloads.Workload {
	return rawProgram("stuck", func(p *guest.Proc) error { p.Recv(); return nil }, idle)
}

// A workload that waits forever must be cut off by MaxGuest, not hang.
func TestParallelDeadlockGuard(t *testing.T) {
	cfg := testConfig(2, stuck(), fixed(100*simtime.Microsecond))
	cfg.MaxGuest = simtime.Guest(5 * simtime.Millisecond)
	if _, err := RunParallel(cfg, 0); err == nil {
		t.Fatal("deadlocked parallel run returned no error")
	}
}

// TestParallelBroadcastAndStray: the goroutine runner applies the
// controller's one fan-out rule, routing and delivering the broadcast and
// unknown-MAC rows' frames as Run does.
func TestParallelBroadcastAndStray(t *testing.T) {
	for _, name := range []string{"broadcast-6/barrier", "broadcast-6/event-queue", "unknown-mac-2/barrier", "unknown-mac-2/event-queue"} {
		d := named(name)
		want, got := d.complete(t).Stats, runParallel(t, d.got.cfg, 0).Stats
		if got.Packets != want.Packets || got.Deliveries != want.Deliveries {
			t.Errorf("%s: %d packets, %d deliveries; Run: %d, %d", name, got.Packets, got.Deliveries, want.Packets, want.Deliveries)
		}
	}
}

// TestParallelObserver attaches every bundled sink to the wall-clock runner:
// node goroutines fire NodePhase concurrently with the controller's
// Packet/Quantum hooks, so under -race this guards the concurrency contract
// of the profiler, the Chrome tracer, the progress reporter and the recorder.
func TestParallelObserver(t *testing.T) {
	p, rec, buf, progress := prof.New(), &obs.Recorder{}, &bytes.Buffer{}, &bytes.Buffer{}
	tracer := obs.NewChromeTracer(buf)
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	s := runParallel(t, cfg, 0.01, p, tracer, obs.NewProgress(progress), rec).Stats
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) == 0 {
		t.Fatalf("parallel trace is not a JSON event array (%v) or is empty", err)
	}
	rep := p.Report()
	if got, want := []int64{rep.Quanta, rep.Packets, rep.Stragglers, int64(len(rec.Quanta))},
		[]int64{int64(s.Quanta), int64(s.Packets), int64(s.Stragglers), int64(s.Quanta)}; !slices.Equal(got, want) {
		t.Errorf("report quanta, packets, stragglers and recorded quanta %v; Stats say %v", got, want)
	}
	if !strings.Contains(progress.String(), "finished") {
		t.Errorf("progress wrote no finished line: %q", progress.String())
	}
}

// invalidConfigs are malformed configurations, each a change to a valid
// two-node one. A name with a dot names the field its error must name.
var invalidConfigs = map[string]func(c *Config){
	"zero nodes":           func(c *Config) { c.Nodes = 0 },
	"nil net":              func(c *Config) { c.Net = nil },
	"nil policy":           func(c *Config) { c.Policy = nil },
	"nil program":          func(c *Config) { c.Program = nil },
	"zero quantum":         func(c *Config) { c.Policy = func() quantum.Policy { return quantum.Fixed{Q: 0} } },
	"net without a NIC":    func(c *Config) { c.Net = &netmodel.Model{Switch: netmodel.Paper().Switch} },
	"short latency matrix": func(c *Config) { c.Net = mixedWANNet(2); c.Nodes = 3 },
	"loss of one":          func(c *Config) { c.Faults = &faults.Plan{Default: faults.Link{Loss: 1}} },
	"loss above one":       func(c *Config) { c.Faults = &faults.Plan{Default: faults.Link{Loss: 1.5}} },
	"negative loss":        func(c *Config) { c.Faults = &faults.Plan{Default: faults.Link{Loss: -0.1}} },
	"nil program for a rank": func(c *Config) {
		c.Program = func(rank, size int) guest.Program {
			if rank == 1 {
				return nil
			}
			return workloads.Silent(simtime.Microsecond).New(rank, size)
		}
	},
	"negative Guest.SendOverhead":  func(c *Config) { c.Guest.SendOverhead = -5 * simtime.Microsecond },
	"negative Guest.RecvOverhead":  func(c *Config) { c.Guest.RecvOverhead = -5 * simtime.Microsecond },
	"NaN Host.JitterSigma":         func(c *Config) { c.Host.JitterSigma = math.NaN() },
	"negative Host.BusySlowdown":   func(c *Config) { c.Host.BusySlowdown = -1 },
	"infinite Host.BusySlowdown":   func(c *Config) { c.Host.BusySlowdown = math.Inf(1) },
	"negative Host.PacketHostCost": func(c *Config) { c.Host.PacketHostCost = -1 },
}

// invalidRun is Run's error on the invalidConfigs entry name.
func invalidRun(name string) (Config, error) {
	cfg := testConfig(2, workloads.Silent(simtime.Microsecond), fixed(simtime.Microsecond))
	invalidConfigs[name](&cfg)
	_, err := Run(cfg)
	return cfg, err
}

// Run and RunParallel go through one validator: each malformed configuration
// must fail both, with the same error, and never reach a node goroutine — a
// nil program dereferenced there would take the whole process down. An error
// in a guest or host parameter names the field; a host one is
// host.Params.Validate's own.
func TestRunnersShareOneValidator(t *testing.T) {
	for name := range invalidConfigs {
		cfg, errRun := invalidRun(name)
		_, errPar := RunParallel(cfg, 0)
		switch {
		case errRun == nil || errPar == nil || errRun.Error() != errPar.Error():
			t.Errorf("%s: Run returned %v, RunParallel %v; want the same error from both", name, errRun, errPar)
		case strings.Contains(name, ".") && !strings.Contains(errRun.Error(), name[strings.IndexByte(name, '.')+1:]):
			t.Errorf("%s: error %q does not name the field", name, errRun)
		case strings.Contains(name, "Host.") && errRun.Error() != cfg.Host.Validate().Error():
			t.Errorf("%s: error %q is not host.Params.Validate's %q", name, errRun, cfg.Host.Validate())
		}
	}

	// RunParallel's one host-cost parameter may not let a NaN through either.
	for _, spin := range []float64{math.NaN(), math.Inf(1), -1} {
		_, err := RunParallel(testConfig(2, workloads.Silent(simtime.Microsecond), fixed(simtime.Microsecond)), spin)
		if err == nil || !strings.Contains(err.Error(), "spinPerGuestBusy") {
			t.Errorf("spinPerGuestBusy %v: RunParallel returned %v, want an error naming the parameter", spin, err)
		}
	}

	// A valid one: RunParallel's Result is Run's type, filled the same way —
	// one finish time per rank, rank 0's metrics — with HostTime the measured
	// wall time its RunEnd reported.
	cfg := testConfig(3, workloads.Workload{New: func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			p.Compute(simtime.Duration(rank+1) * 20 * simtime.Microsecond)
			p.Report("rank", float64(rank))
			return nil
		}
	}}, fixed(10*simtime.Microsecond))
	end := &endCounter{}
	res := runParallel(t, cfg, 0, end)
	if len(res.NodeFinish) != cfg.Nodes || res.NodeFinish[cfg.Nodes-1] != res.GuestTime {
		t.Errorf("NodeFinish = %v for %d ranks, guest time %v", res.NodeFinish, cfg.Nodes, res.GuestTime)
	}
	if end.ends != 1 || res.HostTime <= 0 || res.HostTime != simtime.Duration(end.sum.HostEnd) {
		t.Errorf("HostTime = %v, RunEnd (%d of them) reported HostEnd %v", res.HostTime, end.ends, end.sum.HostEnd)
	}
	if v, ok := res.Metric("rank"); !ok || v != 0 {
		t.Errorf(`Metric("rank") = %v, %v; want rank 0's 0`, v, ok)
	}
}

// Under RunParallel a frame train's source and a receive's sink run on the
// node's own goroutine, between steps, while other goroutines deliver into
// the node. A head-on all-to-all of multi-fragment rendezvous messages
// exercises both upcalls on every node at once; run with -race, this is their
// data-race proof, and the payload check their functional one.
func TestParallelRendezvousTrains(t *testing.T) {
	const nodes, size = 4, 3 * msg.DefaultEagerMax // 22 fragments, RTS/CTS first
	res, err := RunParallel(testConfig(nodes, workloads.Workload{New: func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			ep := msg.New(p)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i*7 + rank)
			}
			for d := 1; d < nodes; d++ {
				ep.SendPayload((rank+d)%nodes, 1, payload)
			}
			for d := 1; d < nodes; d++ {
				src := (rank + d) % nodes
				m := ep.Recv(src, 1)
				want := make([]byte, size)
				for i := range want {
					want[i] = byte(i*7 + src)
				}
				if !bytes.Equal(m.Payload, want) {
					return fmt.Errorf("rank %d: the %d-byte message from %d is not the one sent", rank, len(m.Payload), src)
				}
			}
			return nil
		}
	}}, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)), 0)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = pkt.DefaultMTU - 40
	if want := nodes * (nodes - 1) * ((size+chunk-1)/chunk + 2); res.Stats.Packets != want {
		t.Errorf("%d packets routed, want %d", res.Stats.Packets, want)
	}
}

// obs.Recorder has no lock of its own: the goroutine runner fires Packet and
// QuantumEnd under its controller mutex and the recorder leaves NodePhase, the
// hook node goroutines fire concurrently, alone. Run with -race, this is that
// argument's proof; checkRecords holds the records to the run's Stats and to
// Algorithm 1, lossy and duplicated frames included.
func TestParallelRecorder(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	cfg.Faults = &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}
	res := runParallel(t, cfg, 0, rec, prof.New())
	if s := res.Stats; s.Dropped == 0 || s.Duplicated == 0 {
		t.Fatalf("premise: the fault plan should drop and duplicate frames, got %+v", s)
	}
	var v verdict
	checkRecords(&v, "RunParallel", cfg, newLookahead(cfg.Net, cfg.Nodes).min, res, rec, false)
	report(t, v)
}

// At Q <= T every frame arrives at or after the limit of the quantum it was
// sent in, so each delivery is exact whatever the goroutine schedule: the
// goroutine runner must reproduce the deterministic engine's ground truth on
// everything guest-visible — guestView's finish times, metrics, guest Stats
// and canonical packet list, with no straggler. The rows are caseRows' and
// paperRows' ground-truth rows (adaptive rows and Q above T legitimately
// race), Run's side taken from the table. Each runs at GOMAXPROCS 1, 2 and 4,
// three times, so that under -race the schedule varies as much as the
// runner lets it.
func TestParallelGroundTruthMatchesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rows := 0
	for _, r := range slices.Concat(caseRows(), paperRows()) {
		if !r.groundTruth() {
			continue
		}
		rows++
		d := r.run()
		want := guestOf(d.complete(t), d.got.rec.Packets)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 3; rep++ {
				rec, cfg := &obs.Recorder{}, r.cfg
				cfg.Observer = rec
				got, err := RunParallel(cfg, 0)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d #%d: RunParallel: %v", r.name, procs, rep, err)
				}
				if diff := guestOf(got, rec.Packets).diff(want); diff != "" || got.Stats.Stragglers != 0 {
					t.Errorf("%s GOMAXPROCS=%d #%d: %d stragglers; %s", r.name, procs, rep, got.Stats.Stragglers, diff)
				}
			}
		}
	}
	if rows != 17 {
		t.Errorf("%d rows run at Q <= T, want 17", rows)
	}
}

// TestParallelUnevenFinishBookkeeping drives a workload whose ranks finish at
// very different guest times — rank r computes (r+1) phases, so with a small
// fixed quantum the fast ranks stand done at the barrier for most of the run.
// It pins the HostBarrier accounting: Stats.HostBarrier must equal the sum of
// the per-quantum barrier spans exactly, every span must lie inside its
// quantum, and the quantum count must match the record stream however the
// finishes interleave. Run under -race this also stresses the arrival
// pre-counting of already-done nodes.
func TestParallelUnevenFinishBookkeeping(t *testing.T) {
	const nodes = 5
	uneven := func(rank, size int) guest.Program {
		return func(p *guest.Proc) error {
			for i := 0; i <= rank; i++ {
				p.Compute(60 * simtime.Microsecond)
				if rank != 0 {
					p.Send(0, 0, 256, nil)
				}
			}
			if rank == 0 {
				// Rank 0 drains every other rank's messages (rank r sends
				// r+1 of them), so it is the last to finish while the rest
				// sit done at the barrier.
				for got := 0; got < size*(size+1)/2-1; got++ {
					p.Recv()
				}
			}
			p.Report("rounds", float64(rank+1))
			return nil
		}
	}
	for iter := 0; iter < 4; iter++ {
		log, cfg := &obs.Recorder{}, testConfig(nodes, workloads.Workload{New: uneven}, fixed(20*simtime.Microsecond))
		res := runParallel(t, cfg, 0.01, log)
		var v verdict
		checkRecords(&v, "RunParallel", cfg, newLookahead(cfg.Net, nodes).min, res, log, false)
		report(t, v)
		var barrier simtime.Duration
		for i, rec := range log.Quanta {
			if rec.BarrierStart < rec.HostStart || rec.HostEnd < rec.BarrierStart {
				t.Fatalf("quantum %d: barrier span [%v, %v] outside quantum [%v, %v]",
					i, rec.BarrierStart, rec.HostEnd, rec.HostStart, rec.HostEnd)
			}
			barrier += rec.HostEnd.Sub(rec.BarrierStart)
		}
		if res.Stats.HostBarrier != barrier {
			t.Fatalf("Stats.HostBarrier = %v, sum of record spans = %v", res.Stats.HostBarrier, barrier)
		}
		// The slowest rank runs nodes phases of 60µs; every earlier finisher
		// must not shorten the run.
		if min := simtime.Guest(nodes * 60 * simtime.Microsecond); res.GuestTime < min {
			t.Fatalf("guest time %v shorter than the slowest rank's compute %v", res.GuestTime, min)
		}
		for rank, m := range res.Metrics {
			if m["rounds"] != float64(rank+1) {
				t.Fatalf("rank %d reported rounds=%v, want %d", rank, m["rounds"], rank+1)
			}
		}
	}
}
