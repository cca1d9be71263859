package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

func TestParallelPhasesCompletes(t *testing.T) {
	w := workloads.Phases(4, 200*simtime.Microsecond, 16<<10)
	res, err := RunParallel(testConfig(4, w, adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02)), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metric("time_s"); !ok {
		t.Error("rank 0 did not report time_s")
	}
	if res.Stats.Packets == 0 {
		t.Error("no packets routed")
	}
	if res.HostTime <= 0 || res.HostTime > 30*simtime.Second {
		t.Errorf("implausible wall time %v", res.HostTime)
	}
	t.Logf("parallel run: guest %v in wall %v, %d quanta (mean Q %v), %d packets, %d stragglers",
		res.GuestTime, res.HostTime, res.Stats.Quanta, res.Stats.MeanQ, res.Stats.Packets, res.Stats.Stragglers)
}

func TestParallelNASCompletesAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel NAS run is slow")
	}
	ep := workloads.DefaultEP()
	ep.SerialCompute = ep.SerialCompute.Scale(0.02)
	for _, w := range []workloads.Workload{workloads.EP(ep), workloads.PingPong(20, 4000)} {
		res, err := RunParallel(testConfig(4, w, fixed(100*simtime.Microsecond)), 0.01)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.GuestTime == 0 {
			t.Errorf("%s: zero guest time", w.Name)
		}
	}
}

func TestParallelDeadlockGuard(t *testing.T) {
	// A workload that waits forever must be cut off by MaxGuest, not hang.
	stuck := func(rank, size int) guest.Program {
		return func(p *guest.Proc) error {
			if rank == 0 {
				p.Recv() // nobody ever sends
			}
			return nil
		}
	}
	cfg := testConfig(2, workloads.Workload{New: stuck}, fixed(100*simtime.Microsecond))
	cfg.MaxGuest = simtime.Guest(5 * simtime.Millisecond)
	_, err := RunParallel(cfg, 0)
	if err == nil {
		t.Fatal("deadlocked parallel run returned no error")
	}
	t.Logf("got expected error: %v", err)
}

func TestParallelBroadcastAndStray(t *testing.T) {
	w := workloads.Workload{
		Name: "pbcast",
		New: func(rank, size int) guest.Program {
			return func(p *guest.Proc) error {
				if rank == 0 {
					p.Broadcast(0, 256, nil)
					p.Send(77, 0, 64, nil) // stray MAC
					return nil
				}
				p.Recv()
				return nil
			}
		},
	}
	res, err := RunParallel(testConfig(4, w, fixed(50*simtime.Microsecond)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Deliveries != 3 {
		t.Errorf("expected 3 broadcast deliveries, got %d", res.Stats.Deliveries)
	}
	if res.Stats.Packets != 4 { // 3 replicas + 1 stray
		t.Errorf("expected 4 packets, got %d", res.Stats.Packets)
	}
}

func TestParallelWithOutputQueue(t *testing.T) {
	cfg := testConfig(4, workloads.Phases(2, 100*simtime.Microsecond, 16<<10), fixed(20*simtime.Microsecond))
	cfg.Net.Output = &netmodel.OutputQueue{BytesPerSecond: 10e9, Latency: 100 * simtime.Nanosecond}
	res, err := RunParallel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets == 0 {
		t.Error("no traffic")
	}
}

// TestParallelObserver attaches the full observer stack to the wall-clock
// runner: node goroutines fire NodePhase concurrently with the controller's
// Packet/Quantum hooks, so under -race this guards the concurrency contract
// of every bundled observer.
func TestParallelObserver(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	tracer := obs.NewChromeTracer(&buf)
	cfg := testConfig(4, workloads.Phases(3, 150*simtime.Microsecond, 16<<10), adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	cfg.Observer = obs.Multi(reg, tracer)
	res, err := RunParallel(cfg, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("parallel trace is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("parallel trace is empty")
	}
	s := reg.Snapshot()
	if got, want := s.Counters["quanta"], int64(res.Stats.Quanta); got != want {
		t.Errorf("registry quanta = %d, Stats say %d", got, want)
	}
	if got, want := s.Counters["deliveries"], int64(res.Stats.Deliveries); got != want {
		t.Errorf("registry deliveries = %d, Stats say %d", got, want)
	}
	if got, want := s.Counters["stragglers"], int64(res.Stats.Stragglers); got != want {
		t.Errorf("registry stragglers = %d, Stats say %d", got, want)
	}
	if s.Counters["nodes_done"] != 4 {
		t.Errorf("nodes_done = %d, want 4", s.Counters["nodes_done"])
	}
}

// Run and RunParallel go through one validator: each malformed configuration
// must fail both, with the same error, and never reach a node goroutine — a
// nil program dereferenced there would take the whole process down. An error
// in a guest or host parameter names the field; a host one is
// host.Params.Validate's own.
func TestRunnersShareOneValidator(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	bad := map[string]func(c *Config){
		"zero nodes":           func(c *Config) { c.Nodes = 0 },
		"nil net":              func(c *Config) { c.Net = nil },
		"nil policy":           func(c *Config) { c.Policy = nil },
		"nil program":          func(c *Config) { c.Program = nil },
		"net without a NIC":    func(c *Config) { c.Net = &netmodel.Model{Switch: netmodel.Paper().Switch} },
		"short latency matrix": func(c *Config) { c.Net = mixedWANNet(2); c.Nodes = 3 },
		"loss above one":       func(c *Config) { c.Faults = &faults.Plan{Default: faults.Link{Loss: 1.5}} },
		"nil program for a rank": func(c *Config) {
			c.Program = func(rank, size int) guest.Program {
				if rank == 1 {
					return nil
				}
				return w.New(rank, size)
			}
		},
		"negative Guest.SendOverhead":  func(c *Config) { c.Guest.SendOverhead = -5 * simtime.Microsecond },
		"negative Guest.RecvOverhead":  func(c *Config) { c.Guest.RecvOverhead = -5 * simtime.Microsecond },
		"NaN Host.JitterSigma":         func(c *Config) { c.Host.JitterSigma = math.NaN() },
		"infinite Host.BusySlowdown":   func(c *Config) { c.Host.BusySlowdown = math.Inf(1) },
		"negative Host.PacketHostCost": func(c *Config) { c.Host.PacketHostCost = -1 },
	}
	for name, mod := range bad {
		cfg := testConfig(2, w, fixed(simtime.Microsecond))
		mod(&cfg)
		_, errRun := Run(cfg)
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
		_, err := RunParallel(testConfig(2, w, fixed(simtime.Microsecond)), spin)
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
	cfg.Observer = end
	res, err := RunParallel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
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
				for i, b := range m.Payload {
					if b != byte(i*7+src) {
						return fmt.Errorf("rank %d: byte %d of the message from %d is %d", rank, i, src, b)
					}
				}
				if len(m.Payload) != size {
					return fmt.Errorf("rank %d: %d bytes from %d, want %d", rank, len(m.Payload), src, size)
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
// argument's proof; the counts hold the records to the run's Stats, lossy and
// duplicated frames included.
func TestParallelRecorder(t *testing.T) {
	rec := &obs.Recorder{}
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02))
	cfg.Faults = &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}}
	cfg.Observer = obs.Multi(rec, obs.NewRegistry())
	res, err := RunParallel(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Dropped == 0 || s.Duplicated == 0 {
		t.Fatalf("premise: the fault plan should drop and duplicate frames, got %+v", s)
	}
	delivered, dropped, dups, stragglers, inQuanta := 0, 0, 0, 0, 0
	for _, p := range rec.Packets {
		if p.Dropped {
			dropped++
		} else {
			delivered++
		}
		if p.Duplicate {
			dups++
		}
		if p.Straggler {
			stragglers++
		}
	}
	for i, q := range rec.Quanta {
		if q.Index != i {
			t.Fatalf("quantum record %d has index %d", i, q.Index)
		}
		inQuanta += q.Packets
	}
	if delivered != s.Deliveries || dropped != s.Dropped || dups != s.Duplicated || stragglers != s.Stragglers {
		t.Errorf("recorder holds %d delivered / %d dropped / %d duplicate / %d straggler records, Stats say %d / %d / %d / %d",
			delivered, dropped, dups, stragglers, s.Deliveries, s.Dropped, s.Duplicated, s.Stragglers)
	}
	if len(rec.Quanta) != s.Quanta || inQuanta != s.Packets {
		t.Errorf("recorder holds %d quanta carrying %d packets, Stats say %d and %d", len(rec.Quanta), inQuanta, s.Quanta, s.Packets)
	}
}

// At Q <= T every frame arrives at or after the limit of the quantum it was
// sent in, so each delivery is exact whatever the goroutine schedule: the
// goroutine runner must reproduce the deterministic engine's ground truth on
// everything guest-visible. The rows are fastCases' fixed-policy ones whose Q
// is within the configuration's smallest link bound; adaptive rows and Q above
// T legitimately race. Each runs at GOMAXPROCS 1, 2 and 4, three times, so
// that under -race the schedule varies as much as the runner lets it.
func TestParallelGroundTruthMatchesRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rows := 0
	for _, c := range fastCases() {
		f, ok := c.pol().(quantum.Fixed)
		cfg := c.config()
		if !ok || f.Q > newLookahead(cfg.Net, cfg.Nodes).min {
			continue
		}
		rows++
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 3; rep++ {
				got, err := RunParallel(c.config(), 0)
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d #%d: RunParallel: %v", c.name, procs, rep, err)
				}
				gs, ws := got.Stats, want.Stats
				switch {
				case !reflect.DeepEqual(got.NodeFinish, want.NodeFinish):
					t.Errorf("%s GOMAXPROCS=%d #%d: NodeFinish %v, Run's %v", c.name, procs, rep, got.NodeFinish, want.NodeFinish)
				case !reflect.DeepEqual(got.Metrics, want.Metrics):
					t.Errorf("%s GOMAXPROCS=%d #%d: Metrics %v, Run's %v", c.name, procs, rep, got.Metrics, want.Metrics)
				case gs.Packets != ws.Packets || gs.Deliveries != ws.Deliveries || gs.Stragglers != 0:
					t.Errorf("%s GOMAXPROCS=%d #%d: %d packets, %d deliveries, %d stragglers; Run: %d, %d, %d",
						c.name, procs, rep, gs.Packets, gs.Deliveries, gs.Stragglers, ws.Packets, ws.Deliveries, ws.Stragglers)
				}
			}
		}
	}
	if rows != 9 {
		t.Errorf("%d fastCases rows run at Q <= T, want 9", rows)
	}
}
