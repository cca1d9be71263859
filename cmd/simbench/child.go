package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
)

// childOpts is what the parent tells one child process.
type childOpts struct {
	workload string
	seed     uint64
	opsScale float64
	traced   bool
	// spawned is the parent's wall clock (Unix ns) just before it started
	// the child, so setup_s covers process start; zero means "now".
	spawned int64
	// afterSetup, when non-nil, edits the set-up instance before the
	// warm-up op. Tests use it to plant a wrong reference.
	afterSetup func(instance)
}

// childReport is what one child hands back: raw samples for the parent to
// pool, never derived statistics.
type childReport struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	SetupS   float64 `json:"setup_s"`
	// Per-op samples of the timed ops, in op order. CPU is user+system.
	WallMS  []float64 `json:"wall_ms"`
	CPUMS   []float64 `json:"cpu_ms"`
	Mallocs []float64 `json:"mallocs"`
	AllocKB []float64 `json:"alloc_kb"`
	// PeakRSSMB is the child's maximum resident set at exit.
	PeakRSSMB   float64            `json:"peak_rss_mb"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Fingerprint string             `json:"fingerprint"`
	Exact       map[string]float64 `json:"exact,omitempty"`
	// Layer holds the traced round's S counts, T stamps and comparison
	// runs; empty for an untraced child.
	Layer map[string]float64 `json:"layer,omitempty"`
	Spans []span             `json:"spans,omitempty"`
}

// scaled applies -ops-scale to a fixed op count, never dropping below one.
func scaled(n int, scale float64) int {
	return int(math.Max(1, math.Round(float64(n)*scale)))
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// maxFailureNotes bounds the failure messages one child reports; the count
// in Failed is always complete.
const maxFailureNotes = 5

// runChild is one child process's whole life: set-up, one warm-up op, the
// fixed number of timed ops with the output check after each, and for the
// traced round the workload's comparison runs.
func runChild(o childOpts) (*childReport, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	start := time.Now()
	if o.spawned != 0 {
		start = time.Unix(0, o.spawned)
	}
	var tr *tracer
	ops := scaled(w.ops, o.opsScale)
	if o.traced {
		tr = newTracer()
		ops = scaled(w.tracedOps, o.opsScale)
	}
	inst, err := w.setup(o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if o.afterSetup != nil {
		o.afterSetup(inst)
	}
	rep := &childReport{Workload: w.name, Traced: o.traced}
	fail := func(op int, err error) {
		rep.Failed++
		if len(rep.Failures) < maxFailureNotes {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s op %d: %v", w.name, op, err))
		}
	}
	// Warm-up: page in code, grow the heap and pools. Neither timed nor
	// counted.
	if err := inst.run(); err != nil {
		return nil, fmt.Errorf("%s warm-up op: %w", w.name, err)
	}
	if tr != nil {
		tr.reset()
	}
	rep.SetupS = time.Since(start).Seconds()

	var m0, m1 runtime.MemStats
	for op := 1; op <= ops; op++ {
		if tr != nil {
			tr.beginOp()
		}
		runtime.ReadMemStats(&m0)
		c0, err := cpuTime()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		runErr := inst.run()
		wall := time.Since(t0)
		c1, err := cpuTime()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		rep.WallMS = append(rep.WallMS, float64(wall.Nanoseconds())/1e6)
		rep.CPUMS = append(rep.CPUMS, float64((c1-c0).Nanoseconds())/1e6)
		rep.Mallocs = append(rep.Mallocs, float64(m1.Mallocs-m0.Mallocs))
		rep.AllocKB = append(rep.AllocKB, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		if runErr != nil {
			fail(op, runErr)
		} else if err := inst.check(); err != nil {
			fail(op, err)
		}
		if tr != nil {
			tr.endOp()
		}
	}
	rep.Fingerprint = inst.fingerprint()
	rep.Exact = inst.exact()
	if tr != nil {
		rep.Layer = tr.layerCounts(ops, w.engine)
		for k, v := range inst.counts() {
			rep.Layer[k] = v
		}
		extra, err := inst.extras(ops)
		if err != nil {
			return nil, fmt.Errorf("%s comparison runs: %w", w.name, err)
		}
		for k, v := range extra {
			rep.Layer[k] = v
		}
		rep.Spans = tr.spans
	}
	if rep.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	return rep, nil
}
