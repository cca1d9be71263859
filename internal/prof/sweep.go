package prof

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// SweepSchema identifies the report document: the one file encoding, of one
// labelled run (clustersim) or many (paperfigs).
const SweepSchema = "clustersim-prof-sweep/1"

// Sweep collects labelled profilers, one per run: the experiments package
// registers every run of a sweep, clustersim its one run. Report then
// assembles a deterministically ordered document regardless of the order
// concurrent workers registered their runs in. The zero Sweep is empty and
// ready.
type Sweep struct {
	mu   sync.Mutex
	runs []sweepEntry
}

type sweepEntry struct {
	label string
	p     *Profiler
}

// New registers and returns a fresh profiler for one labelled run. Safe for
// concurrent use.
func (s *Sweep) New(label string) *Profiler {
	p := New()
	s.mu.Lock()
	s.runs = append(s.runs, sweepEntry{label: label, p: p})
	s.mu.Unlock()
	return p
}

// SweepRun is one labelled run inside a SweepReport.
type SweepRun struct {
	Label  string  `json:"label"`
	Report *Report `json:"report"`
}

// SweepReport is the canonical report document.
type SweepReport struct {
	Schema string     `json:"schema"`
	Runs   []SweepRun `json:"runs"`
}

// Report assembles the sweep artifact. Runs are sorted by label and, within
// a label, by their canonical JSON encoding; byte-identical duplicates of
// the same label (e.g. a memoized baseline re-run) collapse to one entry.
// Registration order — which depends on worker scheduling — therefore never
// leaks into the output.
func (s *Sweep) Report() *SweepReport {
	s.mu.Lock()
	entries := append([]sweepEntry(nil), s.runs...)
	s.mu.Unlock()

	type keyed struct {
		label string
		js    []byte
		rep   *Report
	}
	ks := make([]keyed, 0, len(entries))
	for _, e := range entries {
		rep := e.p.Report()
		ks = append(ks, keyed{label: e.label, js: rep.JSON(), rep: rep})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].label != ks[j].label {
			return ks[i].label < ks[j].label
		}
		return bytes.Compare(ks[i].js, ks[j].js) < 0
	})
	out := &SweepReport{Schema: SweepSchema, Runs: []SweepRun{}}
	for i, k := range ks {
		if i > 0 && ks[i-1].label == k.label && bytes.Equal(ks[i-1].js, k.js) {
			continue
		}
		out.Runs = append(out.Runs, SweepRun{Label: k.label, Report: k.rep})
	}
	return out
}

// JSON renders the sweep report in its canonical encoding.
func (r *SweepReport) JSON() []byte { return canonicalJSON(r) }

// NodesCSV renders every run's per-node decomposition as one CSV with a
// leading label column.
func (r *SweepReport) NodesCSV() []byte {
	var b bytes.Buffer
	b.WriteString("label,node,compute_ns,idle_ns,wait_ns\n")
	for _, run := range r.Runs {
		label := csvField(run.Label)
		for _, n := range run.Report.PerNode {
			fmt.Fprintf(&b, "%s,%d,%d,%d,%d\n", label, n.Node, n.ComputeNS, n.IdleNS, n.WaitNS)
		}
	}
	return b.Bytes()
}

// LinksCSV renders every run's per-link accounting as one CSV with a
// leading label column.
func (r *SweepReport) LinksCSV() []byte {
	var b bytes.Buffer
	b.WriteString("label,src,dst,frames,static_lat_ns,lat_min_ns,lat_max_ns,lat_sum_ns,slack_min_ns,neg_slack_frames\n")
	for _, run := range r.Runs {
		label := csvField(run.Label)
		for _, l := range run.Report.Links {
			fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				label, l.Src, l.Dst, l.Frames, l.StaticLatNS, l.LatencyMinNS, l.LatencyMaxNS, l.LatencySumNS, l.SlackMinNS, l.NegSlackFrames)
		}
	}
	return b.Bytes()
}

// csvField quotes a label that would otherwise split or break its CSV row:
// a fault-injected run's label carries the plan's comma-separated key.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteFiles writes the document's canonical JSON to path and its CSV
// companions next to it (<base>.nodes.csv and <base>.links.csv, where <base>
// is path minus a .json suffix if present).
func (r *SweepReport) WriteFiles(path string) error {
	if err := os.WriteFile(path, r.JSON(), 0o644); err != nil {
		return err
	}
	base := strings.TrimSuffix(path, ".json")
	if err := os.WriteFile(base+".nodes.csv", r.NodesCSV(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".links.csv", r.LinksCSV(), 0o644)
}
