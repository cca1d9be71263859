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
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"clustersim/internal/cluster"
	"clustersim/internal/experiments"
	"clustersim/internal/obs"
	"clustersim/internal/prof"
	"clustersim/internal/simtime"
	"clustersim/internal/trace"
	"clustersim/internal/workloads"
)

var (
	workloadFlag = flag.String("workload", "nas.ep", "workload: "+strings.Join(experiments.WorkloadNames(), ", "))
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
	traceFlag    = flag.String("tracefile", "", "run a JSON communication trace (workloads.TraceFile schema) instead of -workload; -nodes must match its rank count")
	cpuProfFlag  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag  = flag.String("memprofile", "", "write a heap profile to this file at exit")

	faultsFlag    = flag.String("faults", "", "deterministic fault injection spec, e.g. \"loss=0.01,dup=0.001,jitter=5us,down=10ms-12ms,slow=3:2.5\" (see internal/faults.Parse)")
	faultSeedFlag = flag.Uint64("fault-seed", 1, "seed keying every fault decision (0 means 1); same spec + seed replays bit-identically")

	traceOutFlag    = flag.String("trace-out", "", "stream a Chrome trace-event JSON file here (open in chrome://tracing or ui.perfetto.dev)")
	metricsAddrFlag = flag.String("metrics-addr", "", "serve the -report document live over HTTP on this address (e.g. localhost:6060) while the run executes")
	progressFlag    = flag.Bool("progress", false, "report live progress (guest %, quanta/s, current Q, straggler rate) on stderr")
	reportFlag      = flag.String("report", "", "write a sync-overhead attribution report document of the one labelled run here (JSON, plus .nodes.csv/.links.csv sidecars); inspect with simprof")
	topoFlag        = flag.String("topo", "", "switch topology override: rack:<radix>:<edge>:<core> builds a two-level fat-tree (e.g. rack:4:500ns:2us), mixedwan:<rack>:<rackLat>:<wanLat> one tight rack plus WAN singletons; default keeps the paper's perfect switch")
)

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
// -traffic, -trace-out, -metrics-addr and -progress flags, around the
// profiler of the run labelled label in the document that -report and
// -metrics-addr share (profiles, nil when neither is set); the recorder is
// nil unless a chart wants the run's records. The returned cleanup finalizes
// the trace file and stops the HTTP endpoint; it runs even when the
// simulation fails so a partial trace stays loadable.
func observability(profiles *prof.Sweep, label string) (obs.Observer, *obs.Recorder, func() error, error) {
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
		ln, err := net.Listen("tcp", *metricsAddrFlag)
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "clustersim: metrics at http://%s/\n", ln.Addr())
		cleanups = append(cleanups, serveReport(ln, profiles))
	}
	if *progressFlag {
		observers = append(observers, obs.NewProgress(os.Stderr))
	}
	if profiles != nil {
		observers = append(observers, profiles.New(label))
	}
	return obs.Multi(observers...), rec, cleanup, nil
}

// serveReport serves s's report document on ln in the background until the
// returned stop is called: every GET reads the document as it stands, its
// run partial ("complete": false) while the run executes. stop returns once
// the server goroutine has exited.
func serveReport(ln net.Listener, s *prof.Sweep) (stop func() error) {
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.Report().JSON()) // a failed write is the client's loss, not the run's
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "clustersim: metrics:", err)
		}
	}()
	return func() error {
		err := srv.Close()
		<-done
		return err
	}
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
	// this command and for the fleet's scenarios.
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
	// The profiler is one more sink on the observer stream: the one run of
	// the report document, read at the end by -report and live by
	// -metrics-addr, labelled as paperfigs would label it.
	var profiles *prof.Sweep
	if *reportFlag != "" || *metricsAddrFlag != "" {
		profiles = &prof.Sweep{}
	}
	label := env.Label(w, *nodesFlag, rc.Policy().Name())
	observer, rec, obsCleanup, err := observability(profiles, label)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obsCleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if *reportFlag != "" {
		// A run that started and then aborted still has a profile, of a
		// prefix.
		defer func() {
			doc := profiles.Report()
			rep := doc.Runs[0].Report
			if rep.Engine == "" {
				return // never reached RunStart
			}
			if werr := doc.WriteFiles(*reportFlag); werr != nil {
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

	cfg := env.Config(w, *nodesFlag, rc.Policy)
	cfg.Observer = observer
	var res *cluster.Result
	if *parallelFlag {
		res, err = cluster.RunParallel(cfg, *spinFlag)
	} else {
		res, err = cluster.Run(cfg)
	}
	if err != nil {
		return err
	}
	printResult(w, res)
	printCharts(rec, res.GuestTime)
	return nil
}

func printResult(w workloads.Workload, res *cluster.Result) {
	mode, host := "", fmt.Sprintf("host time    %v (modelled)", res.HostTime)
	if *parallelFlag {
		mode, host = "parallel, ", fmt.Sprintf("wall clock   %v (real, %d goroutines)", res.HostTime, *nodesFlag)
	}
	fmt.Printf("workload     %s ×%d (%spolicy %s)\n", w.Name, *nodesFlag, mode, res.PolicyName)
	fmt.Printf("guest time   %v\n", res.GuestTime)
	fmt.Println(host)
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
		line := fmt.Sprintf("engagement   %d/%d quanta fully engaged", st.FastFullQuanta, st.Quanta)
		if st.FastPartialQuanta > 0 {
			// Among partially engaged quanta the engaged partitions are the
			// loose singletons: average k loose of n total partitions.
			kSum := st.FastNodeQuanta - *nodesFlag*st.FastFullQuanta
			line += fmt.Sprintf(", %d partially engaged (avg %.1f of %.1f partitions loose)",
				st.FastPartialQuanta,
				float64(kSum)/float64(st.FastPartialQuanta),
				float64(st.PartialPartitions)/float64(st.FastPartialQuanta))
		}
		fmt.Println(line)
	}
	if st.HostBusy > 0 || st.HostBarrier > 0 {
		fmt.Printf("host split   busy %v, idle %v, barriers %v (summed across nodes)\n",
			st.HostBusy, st.HostIdle, st.HostBarrier)
	}
}
