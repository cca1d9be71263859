// Command clustersim runs one cluster simulation and prints its outcome:
// application metric, simulated (guest) time, modelled host time, quantum
// statistics and straggler counts.
//
// Examples:
//
//	clustersim -workload nas.is -nodes 8 -quantum 100us
//	clustersim -workload namd -nodes 8 -dyn 1us:1000us:1.03:0.02 -chart
//	clustersim -workload nas.ep -nodes 4 -quantum 10us -parallel -spin 0.05
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/netmodel"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/quantum"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

var (
	workloadFlag = flag.String("workload", "nas.ep", "workload: nas.ep, nas.is, nas.cg, nas.mg, nas.lu, nas.ft, namd, pingpong, phases, reliable-phases, silent, uniform")
	nodesFlag    = flag.Int("nodes", 8, "number of simulated cluster nodes")
	quantumFlag  = flag.String("quantum", "1us", "fixed synchronization quantum (e.g. 1us, 100us, 1ms)")
	dynFlag      = flag.String("dyn", "", "adaptive quantum as min:max:inc:dec (e.g. 1us:1000us:1.03:0.02); overrides -quantum")
	scaleFlag    = flag.Float64("scale", 1.0, "workload compute scale factor")
	seedFlag     = flag.Uint64("seed", 1, "host model seed (0 means 1)")
	chartFlag    = flag.Bool("chart", false, "print the quantum-over-time chart")
	packetsFlag  = flag.Bool("traffic", false, "print the packet traffic chart")
	widthFlag    = flag.Int("width", 100, "chart width in columns")
	parallelFlag = flag.Bool("parallel", false, "run with real goroutine parallelism and wall-clock timing")
	spinFlag     = flag.Float64("spin", 0.02, "real ns of CPU burned per guest busy ns (parallel mode)")
	workersFlag  = flag.Int("workers", 0, "cap on host cores used, 0 = all (sets GOMAXPROCS; mainly for taming -parallel runs)")
	traceFlag    = flag.String("tracefile", "", "run a JSON communication trace (workloads.TraceFile schema) instead of -workload; -nodes must match its rank count")
	cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag  = flag.String("memprofile", "", "write a heap profile to this file at exit")

	faultsFlag    = flag.String("faults", "", "deterministic fault injection spec, e.g. \"loss=0.01,dup=0.001,jitter=5us,down=10ms-12ms,slow=3:2.5\" (see internal/faults.Parse)")
	faultSeedFlag = flag.Uint64("fault-seed", 1, "seed keying every fault decision (0 means 1); same spec + seed replays bit-identically")

	traceOutFlag    = flag.String("trace-out", "", "stream a Chrome trace-event JSON file here (open in chrome://tracing or ui.perfetto.dev)")
	metricsAddrFlag = flag.String("metrics-addr", "", "serve live JSON metrics on this HTTP address (e.g. localhost:6060) and print a text snapshot at exit")
	progressFlag    = flag.Bool("progress", false, "report live progress (guest %, quanta/s, current Q, straggler rate) on stderr")
	reportFlag      = flag.String("report", "", "write a sync-overhead attribution report here (JSON, plus .nodes.csv/.links.csv sidecars); inspect with simprof")
	topoFlag        = flag.String("topo", "", "switch topology override: rack:<radix>:<edge>:<core> builds a two-level fat-tree (e.g. rack:4:500ns:2us), mixedwan:<rack>:<rackLat>:<wanLat> one tight rack plus WAN singletons; default keeps the paper's perfect switch")
	contentionFlag  = flag.String("contention", "", "switch output-port contention model as <bytes/s>:<latency> (e.g. 10e9:500ns); incast senders queue behind each other; disables lookahead (no quantum can be partitioned)")
)

// parseContention parses the -contention flag into an output-queue model:
// <bytes/s>:<latency>, e.g. 10e9:500ns. The tap models per-destination port
// contention — and, because delivery times then depend on cross-node send
// interleaving, it rules lookahead out: every quantum walks the whole cluster
// through one event queue, and printStats says so.
func parseContention(spec string) (*netmodel.OutputQueue, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 {
		return nil, fmt.Errorf("-contention wants <bytes/s>:<latency>, got %q", spec)
	}
	bps, err := strconv.ParseFloat(parts[0], 64)
	if err != nil || !(bps >= 0) || math.IsInf(bps, 1) {
		return nil, fmt.Errorf("-contention bytes/s %q: want a finite, non-negative number", parts[0])
	}
	lat, err := experiments.ParseLatency("-contention latency", parts[1])
	if err != nil {
		return nil, err
	}
	return &netmodel.OutputQueue{BytesPerSecond: bps, Latency: lat}, nil
}

func main() {
	flag.Parse()
	if err := withProfiles(*cpuProfFlag, *memProfFlag, run); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

// withProfiles brackets f with the optional pprof captures: CPU samples over
// f's whole run, and a post-GC heap snapshot at exit.
func withProfiles(cpu, mem string, f func() error) error {
	if cpu != "" {
		pf, err := os.Create(cpu)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := f()
	if mem != "" {
		mf, merr := os.Create(mem)
		if merr != nil {
			if err == nil {
				err = merr
			}
			return err
		}
		defer mf.Close()
		runtime.GC()
		if perr := pprof.WriteHeapProfile(mf); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// observability assembles the observer stack requested by the -chart,
// -traffic, -trace-out, -metrics-addr and -progress flags; the recorder is
// nil unless a chart wants the run's records. The returned cleanup finalizes
// the trace file, prints the metrics snapshot, and stops the HTTP endpoint;
// it runs even when the simulation fails so a partial trace stays loadable.
func observability(target simtime.Guest) (obs.Observer, *obs.Recorder, func() error, error) {
	var observers []obs.Observer
	var rec *obs.Recorder
	if *chartFlag || *packetsFlag {
		rec = &obs.Recorder{}
		observers = append(observers, rec)
	}
	var cleanups []func() error
	cleanup := func() error {
		var first error
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if *traceOutFlag != "" {
		f, err := os.Create(*traceOutFlag)
		if err != nil {
			return nil, nil, nil, err
		}
		t := obs.NewChromeTracer(f)
		observers = append(observers, t)
		cleanups = append(cleanups, func() error {
			err := t.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		})
	}
	if *metricsAddrFlag != "" {
		reg := obs.NewRegistry()
		srv, err := obs.Serve(*metricsAddrFlag, reg)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "clustersim: metrics at http://%s/\n", srv.Addr())
		observers = append(observers, reg)
		cleanups = append(cleanups, func() error {
			fmt.Fprint(os.Stderr, reg.Text())
			return srv.Close()
		})
	}
	if *progressFlag {
		observers = append(observers, obs.NewProgress(os.Stderr, target, 0))
	}
	return obs.Multi(observers...), rec, cleanup, nil
}

// printCharts renders what -chart and -traffic asked for from the run's
// records.
func printCharts(rec *obs.Recorder, end simtime.Guest) {
	if *chartFlag {
		series := trace.QuantumSeries(rec.Quanta, *widthFlag, end)
		fmt.Println()
		fmt.Print(trace.LogChart(series, 1, 1100, 10, "quantum duration (µs) over guest time"))
	}
	if *packetsFlag {
		fmt.Println()
		fmt.Print(trace.TrafficChart(rec.Packets, *nodesFlag, end, *widthFlag))
	}
}

func run() (err error) {
	// The flags fill a scenario: one resolver, one set of error texts, for
	// this command and for fleet manifests.
	sc := experiments.Scenario{
		Workload: *workloadFlag, Scale: *scaleFlag, Nodes: *nodesFlag,
		Quantum: *quantumFlag, Dyn: *dynFlag, Topo: *topoFlag,
		Faults: *faultsFlag, FaultSeed: *faultSeedFlag, Seed: *seedFlag,
	}
	rc, err := sc.Resolve()
	if err != nil {
		return err
	}
	w, env := rc.Workload, rc.Env
	if *traceFlag != "" {
		f, ferr := os.Open(*traceFlag)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		tf, perr := workloads.ParseTrace(f)
		if perr != nil {
			return perr
		}
		w = tf.Workload()
	}
	if *contentionFlag != "" {
		oq, cerr := parseContention(*contentionFlag)
		if cerr != nil {
			return cerr
		}
		env.Net.Output = oq
	}
	if *workersFlag > 0 {
		runtime.GOMAXPROCS(*workersFlag)
	}

	observer, rec, obsCleanup, err := observability(env.MaxGuest)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsCleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if *reportFlag != "" {
		// The profiler is one more sink on the observer stream. A run that
		// started and then aborted still has a profile, of a prefix.
		profiler := prof.New()
		observer = obs.Multi(observer, profiler)
		defer func() {
			rep := profiler.Report()
			if rep.Engine == "" {
				return // never reached RunStart
			}
			if werr := rep.WriteFiles(*reportFlag); werr != nil {
				if err == nil {
					err = werr
				}
				return
			}
			state := ""
			if !rep.Complete {
				state = "incomplete "
			}
			fmt.Fprintf(os.Stderr, "clustersim: %sreport written to %s\n", state, *reportFlag)
		}()
	}

	if *parallelFlag {
		return runParallel(w, rc.Policy, env, observer, rec)
	}

	cfg := env.Config(w, *nodesFlag, rc.Policy)
	cfg.Observer = observer
	res, err := cluster.Run(cfg)
	if err != nil {
		return err
	}
	printResult(w, res)
	printCharts(rec, res.GuestTime)
	return nil
}

func runParallel(w workloads.Workload, policy func() quantum.Policy, env experiments.Env, observer obs.Observer, rec *obs.Recorder) error {
	res, err := cluster.RunParallel(cluster.ParallelConfig{
		Nodes:            *nodesFlag,
		Guest:            env.Guest,
		Net:              env.Net,
		Policy:           policy,
		Program:          w.New,
		SpinPerGuestBusy: *spinFlag,
		MaxGuest:         env.MaxGuest,
		Observer:         observer,
		Faults:           env.Faults,
	})
	if err != nil {
		return err
	}
	fmt.Printf("workload     %s ×%d (parallel, policy %s)\n", w.Name, *nodesFlag, res.PolicyName)
	fmt.Printf("guest time   %v\n", res.GuestTime)
	fmt.Printf("wall clock   %v (real, %d goroutines)\n", res.Wall, *nodesFlag)
	printMetrics(res.Metrics)
	printStats(res.Stats)
	printCharts(rec, res.GuestTime)
	return nil
}

func printResult(w workloads.Workload, res *cluster.Result) {
	fmt.Printf("workload     %s ×%d (policy %s)\n", w.Name, *nodesFlag, res.PolicyName)
	fmt.Printf("guest time   %v\n", res.GuestTime)
	fmt.Printf("host time    %v (modelled)\n", res.HostTime)
	printMetrics(res.Metrics)
	printStats(res.Stats)
}

func printMetrics(ms []map[string]float64) {
	if len(ms) == 0 {
		return
	}
	var keys []string
	for k := range ms[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric       %s = %.4g\n", k, ms[0][k])
	}
}

func printStats(st cluster.Stats) {
	fmt.Printf("quanta       %d (min %v, mean %v, max %v; %d silent)\n",
		st.Quanta, st.MinQ, st.MeanQ, st.MaxQ, st.SilentQuanta)
	fmt.Printf("packets      %d routed, %d deliveries\n", st.Packets, st.Deliveries)
	if st.Dropped > 0 || st.Duplicated > 0 {
		fmt.Printf("faults       %d dropped, %d duplicated\n", st.Dropped, st.Duplicated)
	}
	fmt.Printf("stragglers   %d (%d snapped to the next quantum), total delay %v\n",
		st.Stragglers, st.QuantumSnaps, st.StragglerDelay)
	if st.FastFullQuanta > 0 || st.FastPartialQuanta > 0 {
		line := fmt.Sprintf("fast path    %d/%d quanta fully engaged", st.FastFullQuanta, st.Quanta)
		if st.FastPartialQuanta > 0 {
			// Among partially engaged quanta the engaged partitions are the
			// loose singletons: average k fast of n total partitions.
			kSum := st.FastNodeQuanta - *nodesFlag*st.FastFullQuanta
			line += fmt.Sprintf(", %d partially engaged (avg %.1f of %.1f partitions fast)",
				st.FastPartialQuanta,
				float64(kSum)/float64(st.FastPartialQuanta),
				float64(st.PartialPartitions)/float64(st.FastPartialQuanta))
		}
		fmt.Println(line)
	}
	if *contentionFlag != "" {
		// Without this line a run showing no engaged quanta reads like a
		// lookahead problem.
		fmt.Println("lookahead    disabled: output tap (-contention models per-port queueing, so delivery times depend on cross-node send interleaving and no quantum can be partitioned)")
	}
	if st.HostBusy > 0 || st.HostBarrier > 0 {
		fmt.Printf("host split   busy %v, idle %v, barriers %v (summed across nodes)\n",
			st.HostBusy, st.HostIdle, st.HostBarrier)
	}
}
