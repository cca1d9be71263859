package prof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"clustersim/internal/obs"
)

// Schema identifies the single-run report encoding.
const Schema = "clustersim-prof/1"

// CauseCount counts the quanta attributed to one fast-path (in)eligibility
// cause.
type CauseCount struct {
	Cause  string `json:"cause"`
	Quanta int64  `json:"quanta"`
}

// Engagement summarizes fast-path eligibility over the run. Engagement is
// graded: a quantum is fully eligible (Q at or below every link's
// lookahead), partially engaged (some lookahead partitions loose, some
// tight), or ineligible.
type Engagement struct {
	// EligibleQuanta counts quanta with Q <= lookahead and no tap.
	EligibleQuanta int64 `json:"eligible_quanta"`
	// EligibleHostNS is the host time those quanta spanned.
	EligibleHostNS int64 `json:"eligible_host_ns"`
	// PartialQuanta counts partially engaged quanta: Q above the global
	// minimum latency but with at least one loose node under the per-link
	// partitioning; PartialHostNS is the host time they spanned.
	PartialQuanta int64 `json:"partial_quanta"`
	PartialHostNS int64 `json:"partial_host_ns"`
	// FastNodeQuanta sums fast-walkable nodes over quanta and NodeQuanta
	// the cluster size over quanta, so FastNodeQuanta/NodeQuanta is the
	// node-level engagement fraction of the run.
	FastNodeQuanta int64 `json:"fast_node_quanta"`
	NodeQuanta     int64 `json:"node_quanta"`
	// Causes breaks every quantum down by cause, sorted by cause name.
	Causes []CauseCount `json:"causes,omitempty"`
}

// PartitionLevel is one row of the partition-structure table: the
// lookahead-closed partitioning the cluster falls into for every quantum
// whose Q lies in one band of the latency matrix's distinct values.
type PartitionLevel struct {
	// MaxTightLatNS is the level: the largest tight-link latency. The
	// tight-link set — and so the whole structure — is exactly the links
	// with latency at or below it. Zero means fully loose.
	MaxTightLatNS int64 `json:"max_tight_lat_ns"`
	// Partitions counts the partitions (tight components plus loose
	// singletons); TightPartitions the multi-node components among them.
	Partitions      int `json:"partitions"`
	TightPartitions int `json:"tight_partitions"`
	// FastNodes counts the loose singletons walked on the fast path.
	FastNodes int `json:"fast_nodes"`
	// Quanta counts the quanta run at this structure.
	Quanta int64 `json:"quanta"`
	// TightLinks ranks the links binding partitions together, ascending by
	// latency, truncated; TightLinkCount has the full count.
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

// LinkRef names a directed link in a ranking.
type LinkRef struct {
	Src       int   `json:"src"`
	Dst       int   `json:"dst"`
	LatencyNS int64 `json:"lat_ns,omitempty"`
	SlackNS   int64 `json:"slack_ns,omitempty"`
	Frames    int64 `json:"frames,omitempty"`
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

// Report is the canonical end-of-run profile artifact. It contains no
// floating-point fields and no maps; every slice has a deterministic order,
// so the JSON encoding is byte-for-byte reproducible whenever the underlying
// run is.
type Report struct {
	Schema      string `json:"schema"`
	Engine      string `json:"engine"`
	Nodes       int    `json:"nodes"`
	Policy      string `json:"policy"`
	LookaheadNS int64  `json:"lookahead_ns"`
	OutputQueue bool   `json:"output_queue"`
	// Complete is false when the run aborted (guest-time limit, a bad policy
	// or a workload error: RunSummary.Err); the profile then covers a prefix.
	Complete   bool  `json:"complete"`
	GuestNS    int64 `json:"guest_ns"`
	HostNS     int64 `json:"host_ns"`
	Quanta     int64 `json:"quanta"`
	Packets    int64 `json:"packets"`
	Stragglers int64 `json:"stragglers"`

	Engagement Engagement `json:"engagement"`
	Totals     Totals     `json:"totals"`

	PerNode []NodeProfile `json:"per_node,omitempty"`
	// Links lists every directed link that carried at least one frame,
	// sorted by (src, dst).
	Links []LinkProfile `json:"links,omitempty"`
	// LimitingLinks ranks observed links by minimum slack, ascending: the
	// links with the least lookahead headroom come first.
	LimitingLinks []LinkRef `json:"limiting_links,omitempty"`
	// MinLatencyLinks lists the directed links whose static latency ties
	// the global minimum — the links that gate the global fast-path
	// lookahead. Truncated to a fixed cap; MinLatencyTied has the full
	// count (a uniform fabric ties every pair).
	MinLatencyLinks []LinkRef `json:"min_latency_links,omitempty"`
	MinLatencyTied  int64     `json:"min_latency_tied,omitempty"`
	// Partitions is the partition-structure table: one row per lookahead
	// level the run's quanta actually hit, ascending. Empty when the
	// configuration rules lookahead out.
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

// NodesCSV renders the per-node decomposition as CSV.
func (r *Report) NodesCSV() []byte {
	var b bytes.Buffer
	b.WriteString("node,compute_ns,idle_ns,wait_ns\n")
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "%d,%d,%d,%d\n", n.Node, n.ComputeNS, n.IdleNS, n.WaitNS)
	}
	return b.Bytes()
}

// LinksCSV renders the per-link slack accounting as CSV.
func (r *Report) LinksCSV() []byte {
	var b bytes.Buffer
	b.WriteString("src,dst,frames,static_lat_ns,lat_min_ns,lat_max_ns,lat_sum_ns,slack_min_ns,neg_slack_frames\n")
	for _, l := range r.Links {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			l.Src, l.Dst, l.Frames, l.StaticLatNS, l.LatencyMinNS, l.LatencyMaxNS, l.LatencySumNS, l.SlackMinNS, l.NegSlackFrames)
	}
	return b.Bytes()
}

// WriteFiles writes the report's canonical JSON to path and its CSV
// companions next to it (<base>.nodes.csv and <base>.links.csv, where
// <base> is path minus a .json suffix if present).
func (r *Report) WriteFiles(path string) error {
	if err := os.WriteFile(path, r.JSON(), 0o644); err != nil {
		return err
	}
	base := strings.TrimSuffix(path, ".json")
	if err := os.WriteFile(base+".nodes.csv", r.NodesCSV(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".links.csv", r.LinksCSV(), 0o644)
}

// Read reads the report file at path once and decodes it by its schema: a
// single-run report, or a sweep whose every run carries a Schema report.
// Without an error exactly one result is non-nil; every error names the file.
func Read(path string) (*Report, *SweepReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	parse := func(v any) error {
		if err := json.Unmarshal(b, v); err != nil {
			return fmt.Errorf("prof: parse %s: %v", path, err)
		}
		return nil
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := parse(&probe); err != nil {
		return nil, nil, err
	}
	switch probe.Schema {
	case Schema:
		r := new(Report)
		if err := parse(r); err != nil {
			return nil, nil, err
		}
		return r, nil, nil
	case SweepSchema:
		s := new(SweepReport)
		if err := parse(s); err != nil {
			return nil, nil, err
		}
		for _, run := range s.Runs {
			if run.Report == nil {
				return nil, nil, fmt.Errorf("prof: %s: run %q has no report", path, run.Label)
			}
			if run.Report.Schema != Schema {
				return nil, nil, fmt.Errorf("prof: %s: run %q: unexpected schema %q (want %q)", path, run.Label, run.Report.Schema, Schema)
			}
		}
		return nil, s, nil
	}
	return nil, nil, fmt.Errorf("%s: unknown schema %q", path, probe.Schema)
}

// LinkName formats a directed link for human-readable output.
func LinkName(src, dst int) string {
	return strconv.Itoa(src) + "->" + strconv.Itoa(dst)
}
