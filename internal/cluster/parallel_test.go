package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"clustersim/internal/faults"
	"clustersim/internal/guest"
	"clustersim/internal/host"
	"clustersim/internal/msg"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/pkt"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

func TestParallelPhasesCompletes(t *testing.T) {
	w := workloads.Phases(4, 200*simtime.Microsecond, 16<<10)
	res, err := RunParallel(ParallelConfig{
		Nodes:            4,
		Guest:            guest.DefaultConfig(),
		Net:              netmodel.Paper(),
		Policy:           adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02),
		Program:          w.New,
		SpinPerGuestBusy: 0.02,
		MaxGuest:         simtime.Guest(10 * simtime.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metric("time_s"); !ok {
		t.Error("rank 0 did not report time_s")
	}
	if res.Stats.Packets == 0 {
		t.Error("no packets routed")
	}
	if res.Wall <= 0 || res.Wall > 30*time.Second {
		t.Errorf("implausible wall time %v", res.Wall)
	}
	t.Logf("parallel run: guest %v in wall %v, %d quanta (mean Q %v), %d packets, %d stragglers",
		res.GuestTime, res.Wall, res.Stats.Quanta, res.Stats.MeanQ, res.Stats.Packets, res.Stats.Stragglers)
}

func TestParallelNASCompletesAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel NAS run is slow")
	}
	ep := workloads.DefaultEP()
	ep.SerialCompute = ep.SerialCompute.Scale(0.02)
	for _, w := range []workloads.Workload{workloads.EP(ep), workloads.PingPong(20, 4000)} {
		res, err := RunParallel(ParallelConfig{
			Nodes:            4,
			Guest:            guest.DefaultConfig(),
			Net:              netmodel.Paper(),
			Policy:           fixed(100 * simtime.Microsecond),
			Program:          w.New,
			SpinPerGuestBusy: 0.01,
			MaxGuest:         simtime.Guest(10 * simtime.Second),
		})
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
	_, err := RunParallel(ParallelConfig{
		Nodes:    2,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Policy:   fixed(100 * simtime.Microsecond),
		Program:  stuck,
		MaxGuest: simtime.Guest(5 * simtime.Millisecond),
	})
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
	res, err := RunParallel(ParallelConfig{
		Nodes:    4,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Policy:   fixed(50 * simtime.Microsecond),
		Program:  w.New,
		MaxGuest: simtime.Guest(simtime.Second),
	})
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
	m := netmodel.Paper()
	m.Output = &netmodel.OutputQueue{BytesPerSecond: 10e9, Latency: 100 * simtime.Nanosecond}
	w := workloads.Phases(2, 100*simtime.Microsecond, 16<<10)
	res, err := RunParallel(ParallelConfig{
		Nodes:    4,
		Guest:    guest.DefaultConfig(),
		Net:      m,
		Policy:   fixed(20 * simtime.Microsecond),
		Program:  w.New,
		MaxGuest: simtime.Guest(simtime.Second),
	})
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
	w := workloads.Phases(3, 150*simtime.Microsecond, 16<<10)
	res, err := RunParallel(ParallelConfig{
		Nodes:            4,
		Guest:            guest.DefaultConfig(),
		Net:              netmodel.Paper(),
		Policy:           adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02),
		Program:          w.New,
		SpinPerGuestBusy: 0.01,
		MaxGuest:         simtime.Guest(10 * simtime.Second),
		Observer:         obs.Multi(reg, tracer),
	})
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
// nil program dereferenced there would take the whole process down.
func TestParallelConfigValidation(t *testing.T) {
	w := workloads.Silent(simtime.Microsecond)
	bad := map[string]func(c *Config){
		"zero nodes":           func(c *Config) { c.Nodes = 0 },
		"nil net":              func(c *Config) { c.Net = nil },
		"nil policy":           func(c *Config) { c.Policy = nil },
		"nil program":          func(c *Config) { c.Program = nil },
		"zero CPUHz":           func(c *Config) { c.Guest.CPUHz = 0 },
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
		// Guest parameters; the error must name the field.
		"NaN Guest.CPUHz":             func(c *Config) { c.Guest.CPUHz = math.NaN() },
		"infinite Guest.CPUHz":        func(c *Config) { c.Guest.CPUHz = math.Inf(1) },
		"negative Guest.SendOverhead": func(c *Config) { c.Guest.SendOverhead = -5 * simtime.Microsecond },
		"negative Guest.RecvOverhead": func(c *Config) { c.Guest.RecvOverhead = -5 * simtime.Microsecond },
	}
	for name, mod := range bad {
		cfg := testConfig(2, w, fixed(simtime.Microsecond))
		mod(&cfg)
		_, errRun := Run(cfg)
		_, errPar := RunParallel(ParallelConfig{
			Nodes: cfg.Nodes, Guest: cfg.Guest, Net: cfg.Net, Policy: cfg.Policy,
			Program: cfg.Program, Faults: cfg.Faults, MaxGuest: cfg.MaxGuest,
		})
		if errRun == nil || errPar == nil || errRun.Error() != errPar.Error() {
			t.Errorf("%s: Run returned %v, RunParallel %v; want the same error from both", name, errRun, errPar)
		} else if _, field, ok := strings.Cut(name, "Guest."); ok && !strings.Contains(errRun.Error(), field) {
			t.Errorf("%s: error %q does not name the field", name, errRun)
		}
	}

	// Host costs are where the two configurations differ: Run takes a
	// host.Params and must hand back host.Params.Validate's own error;
	// RunParallel has one such parameter. Neither may let a NaN through.
	for field, mod := range map[string]func(p *host.Params){
		"JitterSigma":    func(p *host.Params) { p.JitterSigma = math.NaN() },
		"BusySlowdown":   func(p *host.Params) { p.BusySlowdown = math.Inf(1) },
		"PacketHostCost": func(p *host.Params) { p.PacketHostCost = -1 },
	} {
		cfg := testConfig(2, w, fixed(simtime.Microsecond))
		mod(&cfg.Host)
		want := cfg.Host.Validate()
		if _, err := Run(cfg); want == nil || err == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), field) {
			t.Errorf("bad host %s: Run returned %v, host.Params.Validate %v; want the same error, naming the field", field, err, want)
		}
	}
	for _, spin := range []float64{math.NaN(), math.Inf(1), -1} {
		cfg := testConfig(2, w, fixed(simtime.Microsecond))
		_, err := RunParallel(ParallelConfig{
			Nodes: cfg.Nodes, Guest: cfg.Guest, Net: cfg.Net, Policy: cfg.Policy,
			Program: cfg.Program, SpinPerGuestBusy: spin,
		})
		if err == nil || !strings.Contains(err.Error(), "SpinPerGuestBusy") {
			t.Errorf("SpinPerGuestBusy %v: RunParallel returned %v, want an error naming the field", spin, err)
		}
	}
}

// Under RunParallel a frame train's source and a receive's sink run on the
// node's own goroutine, between steps, while other goroutines deliver into
// the node. A head-on all-to-all of multi-fragment rendezvous messages
// exercises both upcalls on every node at once; run with -race, this is their
// data-race proof, and the payload check their functional one.
func TestParallelRendezvousTrains(t *testing.T) {
	const nodes, size = 4, 3 * msg.DefaultEagerMax // 22 fragments, RTS/CTS first
	res, err := RunParallel(ParallelConfig{
		Nodes:  nodes,
		Guest:  guest.DefaultConfig(),
		Net:    netmodel.Paper(),
		Policy: adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02),
		Program: func(rank, _ int) guest.Program {
			return func(p *guest.Proc) error {
				ep := msg.New(p, pkt.DefaultMTU)
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
		},
		MaxGuest: simtime.Guest(10 * simtime.Second),
	})
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
	w := workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23)
	res, err := RunParallel(ParallelConfig{
		Nodes:    4,
		Guest:    guest.DefaultConfig(),
		Net:      netmodel.Paper(),
		Policy:   adaptive(simtime.Microsecond, simtime.Millisecond, 1.05, 0.02),
		Program:  w.New,
		MaxGuest: simtime.Guest(simtime.Second),
		Faults:   &faults.Plan{Seed: 7, Default: faults.Link{Loss: 0.1, Dup: 0.15, Jitter: 3 * simtime.Microsecond}},
		Observer: obs.Multi(rec, obs.NewRegistry()),
	})
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
