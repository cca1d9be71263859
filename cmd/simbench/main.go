// Command simbench is the repository's one benchmark harness: six workloads,
// end-to-end and per-layer metrics, one result schema (clustersim-bench/1).
//
//	go run ./cmd/simbench -seed 1 -out results.json [-trace-out spans.json]
//
// runs every workload in interleaved rounds of child processes, checks every
// op's output, prints every metric by name with its unit and writes one
// result document. The benchmark driver's form
//
//	go run ./cmd/simbench --workload W --seed N --seconds S --trace 0|1
//
// runs one workload for about S seconds and ends with one JSON line holding
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md for the metric glossary and the run protocol.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, execChild))
}

// options are the parent's flags. None of them reaches the engine: the
// engine receives only the configs generated from -seed.
type options struct {
	seed     uint64
	out      string
	traceOut string
	rounds   int
	opsScale float64
	workload string
	compare  bool
	seconds  int
	trace    string
}

// spawnFunc starts one child and returns its report. The default re-executes
// this binary; tests substitute an in-process call.
type spawnFunc func(childOpts) (*childReport, error)

func run(args []string, stdout, stderr io.Writer, spawn spawnFunc) int {
	if len(args) > 0 && args[0] == "-child" {
		return childMain(args[1:], stdout, stderr)
	}
	var o options
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&o.seed, "seed", 1, "seed for host.Params.Seed, the fault plan and workloads.Uniform")
	fs.StringVar(&o.out, "out", "", "write the clustersim-bench/1 result document to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced round's spans to this file")
	fs.IntVar(&o.rounds, "rounds", 3, "untraced rounds (one child per workload per round); ignored when -seconds is set")
	fs.Float64Var(&o.opsScale, "ops-scale", 1, "scale every fixed op count (for smoke tests; recorded numbers use 1)")
	fs.StringVar(&o.workload, "workload", "", "comma-separated subset of workloads (default all)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: simbench -compare a.json b.json")
	fs.IntVar(&o.seconds, "seconds", 0, "benchmark-driver form: keep starting untraced rounds until this many seconds have passed (at least 3 rounds)")
	fs.StringVar(&o.trace, "trace", "", "benchmark-driver form: 0 ends with the end-to-end metrics as one JSON line, 1 also runs the traced round and drivers and ends with the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "simbench: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), benchmarkFile, stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "simbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	ws, err := selectWorkloads(o.workload)
	if err == nil {
		err = o.validate(ws)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	doc, spans, err := measure(o, ws, spawn)
	if err == nil {
		err = emit(o, doc, spans, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	if doc.failed() > 0 {
		return 1
	}
	return 0
}

// emit prints the metrics and writes the files the flags ask for.
func emit(o options, doc *resultDoc, spans [][]span, stdout io.Writer) error {
	printDoc(stdout, doc)
	if o.out != "" {
		if err := writeJSON(o.out, doc); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		if err := writeJSON(o.traceOut, spans); err != nil {
			return err
		}
	}
	if o.trace != "" {
		return printDriverLine(stdout, doc, o.trace == "1")
	}
	return nil
}

func (o options) validate(ws []workload) error {
	switch {
	case o.rounds < 1:
		return fmt.Errorf("-rounds must be at least 1, got %d", o.rounds)
	case o.opsScale <= 0:
		return fmt.Errorf("-ops-scale must be positive, got %v", o.opsScale)
	case o.seconds < 0:
		return fmt.Errorf("-seconds must not be negative, got %d", o.seconds)
	case o.trace != "" && o.trace != "0" && o.trace != "1":
		return fmt.Errorf("-trace wants 0 or 1, got %q", o.trace)
	case o.trace != "" && len(ws) != 1:
		return fmt.Errorf("-trace reports one workload's metrics: name it with -workload")
	}
	return nil
}

func selectWorkloads(spec string) ([]workload, error) {
	if spec == "" {
		return allWorkloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(spec, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childMain is the child side of the re-exec: flags in, one childReport as
// JSON on stdout.
func childMain(args []string, stdout, stderr io.Writer) int {
	var o childOpts
	fs := flag.NewFlagSet("simbench -child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.opsScale, "ops-scale", 1, "op count scale")
	fs.BoolVar(&o.traced, "traced", false, "run the traced round")
	fs.Int64Var(&o.spawned, "spawned", 0, "parent's Unix-ns clock at spawn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := runChild(o)
	if err != nil {
		fmt.Fprintf(stderr, "simbench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		fmt.Fprintf(stderr, "simbench child: %v\n", err)
		return 1
	}
	return 0
}

// execChild runs one child process to completion. Children run strictly one
// at a time, so each has the machine to itself and its rusage is its own.
func execChild(o childOpts) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-ops-scale", fmt.Sprint(o.opsScale),
		"-spawned", fmt.Sprint(time.Now().UnixNano())}
	if o.traced {
		args = append(args, "-traced")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", o.workload, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("child %s: decoding report: %w", o.workload, err)
	}
	return &rep, nil
}
