// Command simprof renders and compares the sync-overhead attribution report
// documents written by clustersim -report (one labelled run) and paperfigs
// -report (a labelled run per simulation of the sweep).
//
// Examples:
//
//	simprof run.json              # render a one-run document in full
//	simprof -top 5 run.json       # shorter link/node tables
//	simprof sweep.json            # one summary row per run
//	simprof -run 'nas.is/8/Q=100µs' sweep.json
//	simprof a.json b.json         # diff two one-run documents
//	simprof a.json sweep.json     # otherwise, diff the runs matched by label
//
// The rendering answers the paper's operational questions directly: where
// each host-second went (compute, idle, barrier wait, routing, barrier
// fixed cost), how many quanta left every node (or some nodes) loose under
// their lookahead partitioning and what ruled lookahead out otherwise, and
// which minimum-latency links gate the global lookahead bound Q ≤ T. Every
// engagement line is derived from the report's partition table (engagementOf)
// and every least-slack line from its link table.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"clustersim/internal/prof"
	"clustersim/internal/simtime"
)

var (
	topFlag = flag.Int("top", 10, "rows in the per-node and least-slack link tables (at least 1)")
	runFlag = flag.String("run", "", "render only the run with this label")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simprof [flags] report.json [other.json]\n\n")
		fmt.Fprintf(os.Stderr, "With one file, renders its run (or a summary row per run). With two,\ndiffs them: one run against one run, otherwise the runs matched by label.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "simprof:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if *topFlag < 1 {
		return fmt.Errorf("-top must be at least 1, got %d", *topFlag)
	}
	switch len(args) {
	case 1:
		return render(args[0])
	case 2:
		if *runFlag != "" {
			return fmt.Errorf("-run selects the run to render; a diff takes no -run")
		}
		return diff(args[0], args[1])
	default:
		flag.Usage()
		return fmt.Errorf("want 1 or 2 report files, got %d", len(args))
	}
}

// render prints the run -run names, else a one-run document's run in full,
// else a summary row per run.
func render(path string) error {
	doc, err := prof.Read(path)
	if err != nil {
		return err
	}
	if *runFlag == "" && len(doc.Runs) > 1 {
		renderSweep(os.Stdout, path, doc)
		return nil
	}
	for _, sr := range doc.Runs {
		if *runFlag == "" || sr.Label == *runFlag {
			renderReport(os.Stdout, runName(path, sr), sr.Report)
			return nil
		}
	}
	return fmt.Errorf("%s: no run labelled %q (have %s)", path, *runFlag, labels(doc))
}

// runName names a run of the document at path in headers.
func runName(path string, sr prof.SweepRun) string { return path + " :: " + sr.Label }

func labels(s *prof.SweepReport) string {
	ls := make([]string, len(s.Runs))
	for i, r := range s.Runs {
		ls[i] = r.Label
	}
	return strings.Join(ls, ", ")
}

func dur(ns int64) string { return simtime.Duration(ns).String() }

func pct(part, whole int64) string {
	if whole == 0 {
		return "  --  "
	}
	return fmt.Sprintf("%5.1f%%", 100*float64(part)/float64(whole))
}

func renderReport(w io.Writer, name string, r *prof.Report) {
	fmt.Fprintf(w, "report %s\n", name)
	fmt.Fprintf(w, "  engine %s, %d nodes, policy %q\n", r.Engine, r.Nodes, r.Policy)
	complete := ""
	if !r.Complete {
		complete = "  [incomplete run: profile covers a prefix]"
	}
	fmt.Fprintf(w, "  guest %s  host %s  quanta %d  packets %d (%d stragglers)%s\n",
		dur(r.GuestNS), dur(r.HostNS), r.Quanta, r.Packets, r.Stragglers, complete)

	// The lookahead line names what gates the global bound Q <= T.
	if r.LookaheadNS > 0 {
		gate := ""
		if len(r.MinLatencyLinks) > 0 {
			names := make([]string, 0, 4)
			for i, l := range r.MinLatencyLinks {
				if i == 4 {
					break
				}
				names = append(names, prof.LinkName(l.Src, l.Dst))
			}
			more := ""
			if r.MinLatencyTied > int64(len(names)) {
				more = fmt.Sprintf(", … %d total", r.MinLatencyTied)
			}
			gate = fmt.Sprintf(" — gated by min-latency link(s) %s%s", strings.Join(names, ", "), more)
		}
		fmt.Fprintf(w, "  lookahead %s%s\n", dur(r.LookaheadNS), gate)
	} else if r.Nodes < 2 {
		fmt.Fprintf(w, "  lookahead unavailable: one node, no link to probe\n")
	} else {
		fmt.Fprintf(w, "  lookahead unavailable: no positive static latency floor\n")
	}

	e := engagementOf(r)
	fmt.Fprintf(w, "\nengagement\n")
	fmt.Fprintf(w, "  fully engaged %d/%d quanta (%s), spanning %s host (%s)\n",
		e.full, r.Quanta, strings.TrimSpace(pct(e.full, r.Quanta)),
		dur(e.fullHost), strings.TrimSpace(pct(e.fullHost, r.HostNS)))
	if e.partial > 0 {
		fmt.Fprintf(w, "  partially engaged %d/%d quanta (%s), spanning %s host (%s)\n",
			e.partial, r.Quanta, strings.TrimSpace(pct(e.partial, r.Quanta)),
			dur(e.partialHost), strings.TrimSpace(pct(e.partialHost, r.HostNS)))
	}
	if nodeQuanta := int64(r.Nodes) * r.Quanta; nodeQuanta > 0 {
		fmt.Fprintf(w, "  loose nodes %d/%d node-quanta (%s)\n",
			e.looseNodeQuanta, nodeQuanta, strings.TrimSpace(pct(e.looseNodeQuanta, nodeQuanta)))
	}
	for _, c := range e.causes() {
		if c.quanta > 0 {
			fmt.Fprintf(w, "  cause %-22s %10d quanta %s\n", c.name, c.quanta, pct(c.quanta, r.Quanta))
		}
	}

	if len(r.Partitions) > 0 {
		fmt.Fprintf(w, "\nlookahead partition structure, one row per level the run's quanta hit\n")
		fmt.Fprintf(w, "  %14s %10s %6s %6s %10s %14s  %s\n", "max tight lat", "partitions", "tight", "loose", "quanta", "host", "tightest binding links")
		for _, lv := range r.Partitions {
			links := make([]string, 0, 3)
			for i, l := range lv.TightLinks {
				if i == 3 {
					break
				}
				links = append(links, prof.LinkName(l.Src, l.Dst))
			}
			more := ""
			if lv.TightLinkCount > int64(len(links)) {
				more = fmt.Sprintf(", … %d total", lv.TightLinkCount)
			}
			fmt.Fprintf(w, "  %14s %10d %6d %6d %10d %14s  %s%s\n",
				dur(lv.MaxTightLatNS), lv.Partitions, lv.TightPartitions, lv.Loose,
				lv.Quanta, dur(lv.HostNS), strings.Join(links, ", "), more)
		}
	}

	t := r.Totals
	attributed := t.ComputeNS + t.IdleNS + t.WaitNS + t.RoutingNS + t.BarrierNS
	fmt.Fprintf(w, "\nhost-time attribution (summed across nodes)\n")
	for _, row := range []struct {
		name string
		ns   int64
	}{
		{"compute", t.ComputeNS}, {"idle", t.IdleNS}, {"barrier wait", t.WaitNS},
		{"routing", t.RoutingNS}, {"barrier cost", t.BarrierNS},
	} {
		fmt.Fprintf(w, "  %-13s %14s %s\n", row.name, dur(row.ns), pct(row.ns, attributed))
	}

	if len(r.PerNode) > 0 {
		nodes := append([]prof.NodeProfile(nil), r.PerNode...)
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].WaitNS != nodes[j].WaitNS {
				return nodes[i].WaitNS > nodes[j].WaitNS
			}
			return nodes[i].Node < nodes[j].Node
		})
		fmt.Fprintf(w, "\nper-node, most barrier wait first (top %d of %d)\n", min(*topFlag, len(nodes)), len(nodes))
		fmt.Fprintf(w, "  %5s %14s %14s %14s\n", "node", "compute", "idle", "wait")
		for i, n := range nodes {
			if i == *topFlag {
				break
			}
			fmt.Fprintf(w, "  %5d %14s %14s %14s\n", n.Node, dur(n.ComputeNS), dur(n.IdleNS), dur(n.WaitNS))
		}
	}

	if len(r.Links) > 0 {
		links := slices.Clone(r.Links)
		slices.SortStableFunc(links, func(a, b prof.LinkProfile) int { return cmp.Compare(a.SlackMinNS, b.SlackMinNS) })
		links = links[:min(*topFlag, len(links))]
		fmt.Fprintf(w, "\nlookahead-limiting links, least slack first (top %d of %d observed)\n", len(links), len(r.Links))
		fmt.Fprintf(w, "  %-9s %14s %14s %10s\n", "link", "min slack", "min latency", "frames")
		for _, l := range links {
			fmt.Fprintf(w, "  %-9s %14s %14s %10d\n", prof.LinkName(l.Src, l.Dst), dur(l.SlackMinNS), dur(l.LatencyMinNS), l.Frames)
		}
	}

	if len(r.Hists) > 0 {
		fmt.Fprintf(w, "\ndistributions\n")
		for _, h := range r.Hists {
			if h.Hist.Count == 0 {
				continue
			}
			mean := h.Hist.SumNS / h.Hist.Count
			fmt.Fprintf(w, "  %-20s n=%-9d min=%-12d mean=%-12d max=%d\n",
				h.Name, h.Hist.Count, h.Hist.Min, mean, h.Hist.Max)
		}
	}
}

// engagement is what a report's partition table says about its quanta: a row
// whose every node is loose counts fully engaged quanta, one with some loose
// nodes partially engaged quanta, one with none quanta whose Q exceeds every
// node's lookahead, and the quanta no row counts ran with lookahead ruled out.
type engagement struct {
	full, partial, tight, none int64
	fullHost, partialHost      int64
	looseNodeQuanta            int64
}

func engagementOf(r *prof.Report) engagement {
	e := engagement{none: r.Quanta}
	for _, lv := range r.Partitions {
		e.none -= lv.Quanta
		e.looseNodeQuanta += int64(lv.Loose) * lv.Quanta
		switch {
		case lv.Loose == r.Nodes:
			e.full += lv.Quanta
			e.fullHost += lv.HostNS
		case lv.Loose > 0:
			e.partial += lv.Quanta
			e.partialHost += lv.HostNS
		default:
			e.tight += lv.Quanta
		}
	}
	return e
}

// cause is one engagement class of quanta under its report label.
type cause struct {
	name   string
	quanta int64
}

// causes lists every class, sorted by label.
func (e engagement) causes() []cause {
	return []cause{{"engaged", e.full}, {"no-lookahead", e.none},
		{"partially-engaged", e.partial}, {"q-exceeds-lookahead", e.tight}}
}

// renderSweep prints one summary row per labelled run, the label column as
// wide as the longest label: fmt pads by runes, and labels hold µ and σ.
func renderSweep(w io.Writer, path string, s *prof.SweepReport) {
	width := len("run")
	for _, sr := range s.Runs {
		width = max(width, utf8.RuneCountInString(sr.Label))
	}
	fmt.Fprintf(w, "sweep %s — %d runs (render one fully with -run <label>)\n\n", path, len(s.Runs))
	fmt.Fprintf(w, "  %-*s %10s %8s %8s %8s %8s\n", width, "run", "quanta", "engaged", "compute", "wait", "barrier")
	for _, sr := range s.Runs {
		r := sr.Report
		t := r.Totals
		attributed := t.ComputeNS + t.IdleNS + t.WaitNS + t.RoutingNS + t.BarrierNS
		fmt.Fprintf(w, "  %-*s %10d %8s %8s %8s %8s\n", width, sr.Label, r.Quanta,
			strings.TrimSpace(pct(engagementOf(r).full, r.Quanta)),
			strings.TrimSpace(pct(t.ComputeNS, attributed)),
			strings.TrimSpace(pct(t.WaitNS, attributed)),
			strings.TrimSpace(pct(t.BarrierNS, attributed)))
	}
}

// diff compares two one-run documents' runs whatever their labels, and
// otherwise the runs the documents share a label for.
func diff(pathA, pathB string) error {
	a, err := prof.Read(pathA)
	if err != nil {
		return err
	}
	b, err := prof.Read(pathB)
	if err != nil {
		return err
	}
	if len(a.Runs) == 1 && len(b.Runs) == 1 {
		ra, rb := a.Runs[0], b.Runs[0]
		diffReports(os.Stdout, runName(pathA, ra), runName(pathB, rb), ra.Report, rb.Report)
		return nil
	}
	return diffSweeps(os.Stdout, pathA, pathB, a, b)
}

func delta(name string, a, b int64, asDur bool) string {
	if a == b {
		return ""
	}
	show := func(v int64) string {
		if asDur {
			return dur(v)
		}
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("  %-22s %14s -> %-14s (%+d)\n", name, show(a), show(b), b-a)
}

func diffReports(w io.Writer, nameA, nameB string, a, b *prof.Report) {
	fmt.Fprintf(w, "diff %s -> %s\n", nameA, nameB)
	var out strings.Builder
	out.WriteString(delta("quanta", a.Quanta, b.Quanta, false))
	out.WriteString(delta("packets", a.Packets, b.Packets, false))
	out.WriteString(delta("stragglers", a.Stragglers, b.Stragglers, false))
	out.WriteString(delta("guest", a.GuestNS, b.GuestNS, true))
	out.WriteString(delta("host", a.HostNS, b.HostNS, true))
	out.WriteString(delta("lookahead", a.LookaheadNS, b.LookaheadNS, true))
	ea, eb := engagementOf(a), engagementOf(b)
	out.WriteString(delta("engaged quanta", ea.full, eb.full, false))
	out.WriteString(delta("engaged host", ea.fullHost, eb.fullHost, true))
	out.WriteString(delta("partial quanta", ea.partial, eb.partial, false))
	out.WriteString(delta("partial host", ea.partialHost, eb.partialHost, true))
	out.WriteString(delta("loose node-quanta", ea.looseNodeQuanta, eb.looseNodeQuanta, false))
	out.WriteString(delta("compute", a.Totals.ComputeNS, b.Totals.ComputeNS, true))
	out.WriteString(delta("idle", a.Totals.IdleNS, b.Totals.IdleNS, true))
	out.WriteString(delta("barrier wait", a.Totals.WaitNS, b.Totals.WaitNS, true))
	out.WriteString(delta("routing", a.Totals.RoutingNS, b.Totals.RoutingNS, true))
	out.WriteString(delta("barrier cost", a.Totals.BarrierNS, b.Totals.BarrierNS, true))
	cb := eb.causes()
	for i, c := range ea.causes() {
		out.WriteString(delta("cause "+c.name, c.quanta, cb[i].quanta, false))
	}
	diffPartitions(&out, a, b)
	diffLinks(&out, a, b)
	if out.Len() == 0 {
		fmt.Fprintln(w, "  reports are equivalent")
		return
	}
	fmt.Fprint(w, out.String())
}

// joinBy indexes the rows of two reports' tables by key and returns every key
// either side has, once, ascending by compare: the walk each per-key diff
// below makes.
func joinBy[T any, K comparable](a, b []T, key func(T) K, compare func(x, y K) int) (keys []K, ia, ib map[K]T) {
	ia, ib = make(map[K]T, len(a)), make(map[K]T, len(b))
	for _, v := range a {
		ia[key(v)] = v
	}
	for _, v := range b {
		ib[key(v)] = v
	}
	keys = make([]K, 0, len(ia)+len(ib))
	//simlint:maporder keys are collected then sorted before rendering
	for k := range ia {
		keys = append(keys, k)
	}
	//simlint:maporder keys are collected then sorted before rendering
	for k := range ib {
		if _, ok := ia[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, compare)
	return keys, ia, ib
}

// diffPartitions compares the lookahead partition structure level by level:
// a quantum-policy or topology change shows up as levels appearing,
// vanishing, or shifting quanta between structures.
func diffPartitions(out *strings.Builder, a, b *prof.Report) {
	levels, ia, ib := joinBy(a.Partitions, b.Partitions,
		func(lv prof.PartitionLevel) int64 { return lv.MaxTightLatNS }, cmp.Compare[int64])
	show := func(lv prof.PartitionLevel) string {
		return fmt.Sprintf("%d partitions (%d tight, %d loose nodes), %d quanta spanning %s",
			lv.Partitions, lv.TightPartitions, lv.Loose, lv.Quanta, dur(lv.HostNS))
	}
	for _, l := range levels {
		la, inA := ia[l]
		lb, inB := ib[l]
		name := fmt.Sprintf("partition level %s", dur(l))
		switch {
		case inA && !inB:
			fmt.Fprintf(out, "  %-22s only in first: %s\n", name, show(la))
		case !inA && inB:
			fmt.Fprintf(out, "  %-22s only in second: %s\n", name, show(lb))
		case !partitionLevelsEqual(la, lb):
			fmt.Fprintf(out, "  %-22s %s -> %s\n", name, show(la), show(lb))
		}
	}
}

// partitionLevelsEqual compares everything the diff renders (the truncated
// link ranking is static per level and elided).
func partitionLevelsEqual(a, b prof.PartitionLevel) bool {
	return a.Partitions == b.Partitions && a.TightPartitions == b.TightPartitions &&
		a.Loose == b.Loose && a.Quanta == b.Quanta && a.HostNS == b.HostNS && a.TightLinkCount == b.TightLinkCount
}

// diffLinks reports per-link minimum-slack movement, the signal that a
// topology or traffic change tightened or relaxed the lookahead headroom.
func diffLinks(out *strings.Builder, a, b *prof.Report) {
	keys, ia, ib := joinBy(a.Links, b.Links,
		func(l prof.LinkProfile) [2]int { return [2]int{l.Src, l.Dst} },
		func(x, y [2]int) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	// Render every change first, then truncate, so the elision line can
	// state exactly how many rows it dropped — and never appears when the
	// change count happens to equal -top.
	var lines []string
	for _, k := range keys {
		la, inA := ia[k]
		lb, inB := ib[k]
		name := prof.LinkName(k[0], k[1])
		switch {
		case inA && !inB:
			lines = append(lines, fmt.Sprintf("  link %-18s only in first (min slack %s)\n", name, dur(la.SlackMinNS)))
		case !inA && inB:
			lines = append(lines, fmt.Sprintf("  link %-18s only in second (min slack %s)\n", name, dur(lb.SlackMinNS)))
		case la.SlackMinNS != lb.SlackMinNS:
			lines = append(lines, fmt.Sprintf("  link %-18s min slack %s -> %s\n", name, dur(la.SlackMinNS), dur(lb.SlackMinNS)))
		}
	}
	for i, ln := range lines {
		if i == *topFlag && len(lines) > *topFlag {
			fmt.Fprintf(out, "  … %d further link changes elided (-top %d)\n", len(lines)-*topFlag, *topFlag)
			break
		}
		out.WriteString(ln)
	}
}

func diffSweeps(w io.Writer, nameA, nameB string, a, b *prof.SweepReport) error {
	fmt.Fprintf(w, "diff sweeps %s -> %s\n", nameA, nameB)
	ia := make(map[string]*prof.Report, len(a.Runs))
	for _, r := range a.Runs {
		ia[r.Label] = r.Report
	}
	matched := false
	for _, rb := range b.Runs {
		ra, ok := ia[rb.Label]
		if !ok {
			fmt.Fprintf(w, "run %q only in second\n", rb.Label)
			continue
		}
		matched = true
		diffReports(w, runName(nameA, rb), runName(nameB, rb), ra, rb.Report)
		delete(ia, rb.Label)
	}
	for _, r := range a.Runs {
		if _, still := ia[r.Label]; still {
			fmt.Fprintf(w, "run %q only in first\n", r.Label)
		}
	}
	if !matched {
		return fmt.Errorf("no labels in common")
	}
	return nil
}
