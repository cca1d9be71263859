// Command simprof renders and compares the sync-overhead attribution
// reports written by clustersim -report (single run) and paperfigs -report
// (labelled sweep).
//
// Examples:
//
//	simprof run.json              # render one report
//	simprof -top 5 run.json       # shorter link/node tables
//	simprof a.json b.json         # diff two reports (or two sweeps)
//	simprof -run nas.is/8/100 sweep.json
//
// The rendering answers the paper's operational questions directly: where
// each host-second went (compute, idle, barrier wait, routing, barrier
// fixed cost), how many quanta left every node (or some nodes) loose under
// their lookahead partitioning and what ruled lookahead out otherwise, and
// which minimum-latency links gate the global lookahead bound Q ≤ T.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"clustersim/internal/prof"
	"clustersim/internal/simtime"
)

var (
	topFlag = flag.Int("top", 10, "rows in the per-node and limiting-link tables")
	runFlag = flag.String("run", "", "render only this labelled run of a sweep report")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simprof [flags] report.json [other.json]\n\n")
		fmt.Fprintf(os.Stderr, "With one file, renders the report (or a sweep summary). With two,\ndiffs them: single vs single, or sweep vs sweep matched by label.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "simprof:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	switch len(args) {
	case 1:
		return render(args[0])
	case 2:
		return diff(args[0], args[1])
	default:
		flag.Usage()
		return fmt.Errorf("want 1 or 2 report files, got %d", len(args))
	}
}

func render(path string) error {
	single, sweep, err := prof.Read(path)
	if err != nil {
		return err
	}
	if single != nil {
		renderReport(os.Stdout, path, single)
		return nil
	}
	if *runFlag != "" {
		for _, sr := range sweep.Runs {
			if sr.Label == *runFlag {
				renderReport(os.Stdout, path+" :: "+sr.Label, sr.Report)
				return nil
			}
		}
		return fmt.Errorf("%s: no run labelled %q (have %s)", path, *runFlag, labels(sweep))
	}
	renderSweep(os.Stdout, path, sweep)
	return nil
}

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

func renderReport(w *os.File, name string, r *prof.Report) {
	fmt.Fprintf(w, "report %s\n", name)
	fmt.Fprintf(w, "  engine %s, %d nodes, policy %q\n", r.Engine, r.Nodes, r.Policy)
	complete := ""
	if !r.Complete {
		complete = "  [incomplete run: profile covers a prefix]"
	}
	fmt.Fprintf(w, "  guest %s  host %s  quanta %d  packets %d (%d stragglers)%s\n",
		dur(r.GuestNS), dur(r.HostNS), r.Quanta, r.Packets, r.Stragglers, complete)

	// The lookahead line names what gates the global fast-path bound Q <= T.
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
	} else if r.OutputQueue {
		fmt.Fprintf(w, "  lookahead unavailable: output-queue tap voids the static latency floor\n")
	} else {
		fmt.Fprintf(w, "  lookahead unavailable: no positive static latency floor\n")
	}

	fmt.Fprintf(w, "\nfast path\n")
	fmt.Fprintf(w, "  fully engaged %d/%d quanta (%s), spanning %s host (%s)\n",
		r.Engagement.EligibleQuanta, r.Quanta, strings.TrimSpace(pct(r.Engagement.EligibleQuanta, r.Quanta)),
		dur(r.Engagement.EligibleHostNS), strings.TrimSpace(pct(r.Engagement.EligibleHostNS, r.HostNS)))
	if r.Engagement.PartialQuanta > 0 {
		fmt.Fprintf(w, "  partially engaged %d/%d quanta (%s), spanning %s host (%s)\n",
			r.Engagement.PartialQuanta, r.Quanta, strings.TrimSpace(pct(r.Engagement.PartialQuanta, r.Quanta)),
			dur(r.Engagement.PartialHostNS), strings.TrimSpace(pct(r.Engagement.PartialHostNS, r.HostNS)))
	}
	if r.Engagement.NodeQuanta > 0 {
		fmt.Fprintf(w, "  node-level engagement %d/%d node-quanta fast-walked (%s)\n",
			r.Engagement.FastNodeQuanta, r.Engagement.NodeQuanta,
			strings.TrimSpace(pct(r.Engagement.FastNodeQuanta, r.Engagement.NodeQuanta)))
	}
	for _, c := range r.Engagement.Causes {
		fmt.Fprintf(w, "  cause %-22s %10d quanta %s\n", c.Cause, c.Quanta, pct(c.Quanta, r.Quanta))
	}

	if len(r.Partitions) > 0 {
		fmt.Fprintf(w, "\nlookahead partition structure, one row per level the run's quanta hit\n")
		fmt.Fprintf(w, "  %14s %10s %6s %6s %10s  %s\n", "max tight lat", "partitions", "tight", "fast", "quanta", "tightest binding links")
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
			fmt.Fprintf(w, "  %14s %10d %6d %6d %10d  %s%s\n",
				dur(lv.MaxTightLatNS), lv.Partitions, lv.TightPartitions, lv.FastNodes,
				lv.Quanta, strings.Join(links, ", "), more)
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

	if len(r.LimitingLinks) > 0 {
		fmt.Fprintf(w, "\nlookahead-limiting links, least slack first (top %d of %d observed)\n",
			min(*topFlag, len(r.LimitingLinks)), len(r.Links))
		fmt.Fprintf(w, "  %-9s %14s %14s %10s\n", "link", "min slack", "min latency", "frames")
		for i, l := range r.LimitingLinks {
			if i == *topFlag {
				break
			}
			fmt.Fprintf(w, "  %-9s %14s %14s %10d\n", prof.LinkName(l.Src, l.Dst), dur(l.SlackNS), dur(l.LatencyNS), l.Frames)
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

// renderSweep prints one summary row per labelled run.
func renderSweep(w *os.File, path string, s *prof.SweepReport) {
	fmt.Fprintf(w, "sweep %s — %d runs (render one fully with -run <label>)\n\n", path, len(s.Runs))
	fmt.Fprintf(w, "  %-36s %10s %8s %8s %8s %8s\n", "run", "quanta", "fast", "compute", "wait", "barrier")
	for _, sr := range s.Runs {
		r := sr.Report
		t := r.Totals
		attributed := t.ComputeNS + t.IdleNS + t.WaitNS + t.RoutingNS + t.BarrierNS
		fmt.Fprintf(w, "  %-36s %10d %8s %8s %8s %8s\n", sr.Label, r.Quanta,
			strings.TrimSpace(pct(r.Engagement.EligibleQuanta, r.Quanta)),
			strings.TrimSpace(pct(t.ComputeNS, attributed)),
			strings.TrimSpace(pct(t.WaitNS, attributed)),
			strings.TrimSpace(pct(t.BarrierNS, attributed)))
	}
}

func diff(pathA, pathB string) error {
	singleA, sweepA, err := prof.Read(pathA)
	if err != nil {
		return err
	}
	singleB, sweepB, err := prof.Read(pathB)
	if err != nil {
		return err
	}
	switch {
	case singleA != nil && singleB != nil:
		diffReports(os.Stdout, pathA, pathB, singleA, singleB)
		return nil
	case sweepA != nil && sweepB != nil:
		return diffSweeps(os.Stdout, pathA, pathB, sweepA, sweepB)
	default:
		return fmt.Errorf("cannot diff a single report against a sweep (%s vs %s)", pathA, pathB)
	}
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

func diffReports(w *os.File, nameA, nameB string, a, b *prof.Report) {
	fmt.Fprintf(w, "diff %s -> %s\n", nameA, nameB)
	var out strings.Builder
	out.WriteString(delta("quanta", a.Quanta, b.Quanta, false))
	out.WriteString(delta("packets", a.Packets, b.Packets, false))
	out.WriteString(delta("stragglers", a.Stragglers, b.Stragglers, false))
	out.WriteString(delta("guest", a.GuestNS, b.GuestNS, true))
	out.WriteString(delta("host", a.HostNS, b.HostNS, true))
	out.WriteString(delta("lookahead", a.LookaheadNS, b.LookaheadNS, true))
	out.WriteString(delta("eligible quanta", a.Engagement.EligibleQuanta, b.Engagement.EligibleQuanta, false))
	out.WriteString(delta("eligible host", a.Engagement.EligibleHostNS, b.Engagement.EligibleHostNS, true))
	out.WriteString(delta("partial quanta", a.Engagement.PartialQuanta, b.Engagement.PartialQuanta, false))
	out.WriteString(delta("partial host", a.Engagement.PartialHostNS, b.Engagement.PartialHostNS, true))
	out.WriteString(delta("fast node-quanta", a.Engagement.FastNodeQuanta, b.Engagement.FastNodeQuanta, false))
	out.WriteString(delta("compute", a.Totals.ComputeNS, b.Totals.ComputeNS, true))
	out.WriteString(delta("idle", a.Totals.IdleNS, b.Totals.IdleNS, true))
	out.WriteString(delta("barrier wait", a.Totals.WaitNS, b.Totals.WaitNS, true))
	out.WriteString(delta("routing", a.Totals.RoutingNS, b.Totals.RoutingNS, true))
	out.WriteString(delta("barrier cost", a.Totals.BarrierNS, b.Totals.BarrierNS, true))
	diffCauses(&out, a, b)
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

func diffCauses(out *strings.Builder, a, b *prof.Report) {
	names, ca, cb := joinBy(a.Engagement.Causes, b.Engagement.Causes,
		func(c prof.CauseCount) string { return c.Cause }, strings.Compare)
	for _, n := range names {
		out.WriteString(delta("cause "+n, ca[n].Quanta, cb[n].Quanta, false))
	}
}

// diffPartitions compares the lookahead partition structure level by level:
// a quantum-policy or topology change shows up as levels appearing,
// vanishing, or shifting quanta between structures.
func diffPartitions(out *strings.Builder, a, b *prof.Report) {
	levels, ia, ib := joinBy(a.Partitions, b.Partitions,
		func(lv prof.PartitionLevel) int64 { return lv.MaxTightLatNS }, cmp.Compare[int64])
	show := func(lv prof.PartitionLevel) string {
		return fmt.Sprintf("%d partitions (%d tight, %d fast nodes), %d quanta",
			lv.Partitions, lv.TightPartitions, lv.FastNodes, lv.Quanta)
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
		a.FastNodes == b.FastNodes && a.Quanta == b.Quanta && a.TightLinkCount == b.TightLinkCount
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

func diffSweeps(w *os.File, nameA, nameB string, a, b *prof.SweepReport) error {
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
		diffReports(w, nameA+" :: "+rb.Label, nameB+" :: "+rb.Label, ra, rb.Report)
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
