package prof

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
)

// SweepSchema identifies the multi-run report encoding.
const SweepSchema = "clustersim-prof-sweep/1"

// Sweep collects profilers across the runs of an experiment sweep. The
// experiments package creates one labelled profiler per run; Report then
// assembles a deterministically ordered multi-run artifact regardless of the
// order concurrent workers registered their runs in.
type Sweep struct {
	mu   sync.Mutex
	runs []sweepEntry
}

type sweepEntry struct {
	label string
	p     *Profiler
}

// NewSweep returns an empty sweep collector.
func NewSweep() *Sweep { return &Sweep{} }

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

// SweepReport is the canonical multi-run artifact.
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

// LinksCSV renders every run's per-link accounting as one CSV with a
// leading label column.
func (r *SweepReport) LinksCSV() []byte {
	var b bytes.Buffer
	b.WriteString("label,src,dst,frames,static_lat_ns,lat_min_ns,lat_max_ns,lat_sum_ns,slack_min_ns,neg_slack_frames\n")
	for _, run := range r.Runs {
		for _, l := range run.Report.Links {
			fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				run.Label, l.Src, l.Dst, l.Frames, l.StaticLatNS, l.LatencyMinNS, l.LatencyMaxNS, l.LatencySumNS, l.SlackMinNS, l.NegSlackFrames)
		}
	}
	return b.Bytes()
}

// WriteFiles writes the sweep's canonical JSON to path and the combined
// links CSV next to it (<base>.links.csv).
func (r *SweepReport) WriteFiles(path string) error {
	if err := os.WriteFile(path, r.JSON(), 0o644); err != nil {
		return err
	}
	base := path
	if n := len(path); n > 5 && path[n-5:] == ".json" {
		base = path[:n-5]
	}
	return os.WriteFile(base+".links.csv", r.LinksCSV(), 0o644)
}
