package prof

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"clustersim/internal/obs"
)

// Schema identifies the encoding of one run's report, the body of every run
// of a report document (SweepSchema).
const Schema = "clustersim-prof/2"

// PartitionLevel is one row of the partition table: the lookahead-closed
// partitioning the cluster falls into for every quantum whose Q lies in one
// band of the latency matrix's distinct values. The table is the report's
// engagement record: a row whose every node is loose counts fully engaged
// quanta, one with some loose nodes partially engaged quanta, one with none
// quanta whose Q exceeds every node's lookahead, and the quanta no row counts
// ran with lookahead ruled out.
type PartitionLevel struct {
	// MaxTightLatNS is the level: the largest tight-link latency. The
	// tight-link set — and so the whole structure — is exactly the links
	// with latency at or below it. Zero means fully loose.
	MaxTightLatNS int64 `json:"max_tight_lat_ns"`
	// Partitions counts the partitions (tight components plus loose
	// singletons); TightPartitions the multi-node components among them.
	Partitions      int `json:"partitions"`
	TightPartitions int `json:"tight_partitions"`
	// Loose counts the singletons, the nodes no tight link binds.
	Loose int `json:"loose"`
	// Quanta counts the quanta run at this structure, HostNS the host time
	// they spanned (release to release).
	Quanta int64 `json:"quanta"`
	HostNS int64 `json:"host_ns"`
	// TightLinks ranks the links binding partitions together, ascending by
	// latency then (src, dst), truncated; TightLinkCount has the full count.
	TightLinks     []LinkRef `json:"tight_links,omitempty"`
	TightLinkCount int64     `json:"tight_link_count,omitempty"`
}

// Totals is the run-wide host-time decomposition. For the deterministic
// engine ComputeNS+IdleNS reconciles exactly with Stats.HostBusy+HostIdle
// and RoutingNS+BarrierNS with Stats.HostBarrier.
type Totals struct {
	ComputeNS int64 `json:"compute_ns"`
	IdleNS    int64 `json:"idle_ns"`
	WaitNS    int64 `json:"wait_ns"`
	RoutingNS int64 `json:"routing_ns"`
	BarrierNS int64 `json:"barrier_ns"`
}

// NodeProfile is one node's host-time decomposition.
type NodeProfile struct {
	Node      int   `json:"node"`
	ComputeNS int64 `json:"compute_ns"`
	IdleNS    int64 `json:"idle_ns"`
	WaitNS    int64 `json:"wait_ns"`
}

// LinkProfile is one directed link's observed latency/slack accounting.
// Slack is frame latency minus the quantum size at send time.
type LinkProfile struct {
	Src            int   `json:"src"`
	Dst            int   `json:"dst"`
	Frames         int64 `json:"frames"`
	StaticLatNS    int64 `json:"static_lat_ns,omitempty"`
	LatencyMinNS   int64 `json:"lat_min_ns"`
	LatencyMaxNS   int64 `json:"lat_max_ns"`
	LatencySumNS   int64 `json:"lat_sum_ns"`
	SlackMinNS     int64 `json:"slack_min_ns"`
	NegSlackFrames int64 `json:"neg_slack_frames"`
}

// LinkRef names a directed link and its static latency in a ranking.
type LinkRef struct {
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	LatencyNS int64 `json:"lat_ns,omitempty"`
}

// Bucket is one occupied histogram bucket covering the half-open interval
// [Lo, Hi).
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistData is the float-free snapshot of an obs.Histogram embedded in
// reports. Buckets are ordered ascending by Lo, so encoding is deterministic.
type HistData struct {
	Count   int64    `json:"count"`
	SumNS   int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// histData snapshots h, its signed bucket ladder included.
func histData(h *obs.Histogram) HistData {
	var d HistData
	d.Count, d.SumNS, d.Min, d.Max = h.Summary()
	h.Buckets(func(lo, hi, c int64) {
		d.Buckets = append(d.Buckets, Bucket{Lo: lo, Hi: hi, Count: c})
	})
	return d
}

// NamedHist attaches a stable name to a histogram snapshot.
type NamedHist struct {
	Name string   `json:"name"`
	Hist HistData `json:"hist"`
}

// Report is one run's end-of-run profile; a report document (SweepReport)
// carries one per labelled run. It contains no floating-point fields and no
// maps; every slice has a deterministic order, so the JSON encoding is
// byte-for-byte reproducible whenever the underlying run is.
type Report struct {
	Schema      string `json:"schema"`
	Engine      string `json:"engine"`
	Nodes       int    `json:"nodes"`
	Policy      string `json:"policy"`
	LookaheadNS int64  `json:"lookahead_ns"`
	// Complete is false when the run aborted (guest-time limit, a bad policy
	// or a workload error: RunSummary.Err), or has not ended yet (a report
	// read mid-run); the profile then covers a prefix.
	Complete   bool  `json:"complete"`
	GuestNS    int64 `json:"guest_ns"`
	HostNS     int64 `json:"host_ns"`
	Quanta     int64 `json:"quanta"`
	Packets    int64 `json:"packets"`
	Stragglers int64 `json:"stragglers"`

	Totals Totals `json:"totals"`

	PerNode []NodeProfile `json:"per_node,omitempty"`
	// Links lists every directed link that carried at least one frame,
	// sorted by (src, dst).
	Links []LinkProfile `json:"links,omitempty"`
	// MinLatencyLinks ranks the directed links whose static latency ties
	// Lookahead — the links that gate it — under the same cap as each
	// partition row's TightLinks; MinLatencyTied has the full count (a
	// uniform fabric ties every pair).
	MinLatencyLinks []LinkRef `json:"min_latency_links,omitempty"`
	MinLatencyTied  int64     `json:"min_latency_tied,omitempty"`
	// Partitions is the partition table: one row per lookahead level the
	// run's quanta actually hit, ascending. Empty when the configuration
	// rules lookahead out.
	Partitions []PartitionLevel `json:"partitions,omitempty"`

	Hists []NamedHist `json:"hists,omitempty"`
}

// canonicalJSON renders a report or a sweep in its canonical encoding:
// two-space indented, trailing newline, fields in declaration order.
func canonicalJSON(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Reports contain only marshalable field types; this is unreachable.
		panic(fmt.Sprintf("prof: marshal report: %v", err))
	}
	return append(b, '\n')
}

// JSON renders the report in its canonical encoding.
func (r *Report) JSON() []byte { return canonicalJSON(r) }

// Read reads the report document at path: one or more runs, each carrying a
// Schema report under a label of its own. Any other top-level schema, a bare
// Schema report or an earlier encoding included, is refused by name, and so
// is a document with no runs. Every error names the file.
func Read(path string) (*SweepReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(SweepReport)
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("prof: parse %s: %v", path, err)
	}
	if s.Schema != SweepSchema {
		return nil, fmt.Errorf("%s: unknown schema %q (this build reads %s)", path, s.Schema, SweepSchema)
	}
	if len(s.Runs) == 0 {
		return nil, fmt.Errorf("prof: %s: no runs", path)
	}
	seen := make(map[string]bool, len(s.Runs))
	for _, run := range s.Runs {
		if seen[run.Label] {
			return nil, fmt.Errorf("prof: %s: run label %q repeats", path, run.Label)
		}
		seen[run.Label] = true
		if run.Report == nil {
			return nil, fmt.Errorf("prof: %s: run %q has no report", path, run.Label)
		}
		if run.Report.Schema != Schema {
			return nil, fmt.Errorf("prof: %s: run %q: unexpected schema %q (want %q)", path, run.Label, run.Report.Schema, Schema)
		}
	}
	return s, nil
}

// LinkName formats a directed link for human-readable output.
func LinkName(src, dst int) string {
	return strconv.Itoa(src) + "->" + strconv.Itoa(dst)
}
