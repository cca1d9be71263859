package prof

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/obs"
	"clustersim/internal/simtime"
)

// quantum drives a phase-less quantum's hooks into p: opened from rec's own
// fields, with the given partitioning (nil for none), and closed by rec.
func quantum(p *Profiler, part *obs.Partitioning, rec obs.QuantumRecord) {
	p.QuantumStart(rec.Index, rec.Start, rec.Q, rec.HostStart)
	if part != nil {
		p.QuantumPartition(rec.Index, part)
	}
	p.QuantumEnd(rec)
}

func TestHistSignedBuckets(t *testing.T) {
	var h obs.Histogram
	for _, v := range []int64{-5, -4, -1, 0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	s := histData(&h)
	if s.Count != 8 || s.Min != -5 || s.Max != 1000 || s.SumNS != 996 {
		t.Fatalf("summary: %+v", s)
	}
	want := []Bucket{
		{Lo: -7, Hi: -3, Count: 2}, // -5, -4 in (-8,-4]
		{Lo: -1, Hi: 0, Count: 1},  // -1 in (-2,-1]
		{Lo: 0, Hi: 1, Count: 1},   // 0
		{Lo: 1, Hi: 2, Count: 1},   // 1
		{Lo: 2, Hi: 4, Count: 2},   // 2, 3
		{Lo: 512, Hi: 1024, Count: 1},
	}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets:\n got %+v\nwant %+v", s.Buckets, want)
	}
}

// The cause is read off the quantum's partitioning, and a quantum without one
// is a run whose lookahead is ruled out. RunInfo.Lookahead is not consulted:
// the cases set it where Q <= Lookahead would decide otherwise.
func TestCauseClassification(t *testing.T) {
	loose := &obs.Partitioning{Part: []int32{0, 1}, Partitions: 2, FastNodes: 2}
	whole := &obs.Partitioning{Part: []int32{0, 0}, Partitions: 1, TightPartitions: 1, MaxTightLat: 1000}
	cases := []struct {
		name string
		info obs.RunInfo
		part *obs.Partitioning
		q    simtime.Duration
		want Cause
	}{
		{"engaged", obs.RunInfo{Nodes: 2}, loose, 1000, CauseEngaged},
		{"q-exceeds", obs.RunInfo{Nodes: 2, Lookahead: 1000}, whole, 1000, CauseQExceedsLookahead},
		{"no-lookahead", obs.RunInfo{Nodes: 2, Lookahead: 1000}, nil, 10, CauseNoLookahead},
	}
	for _, c := range cases {
		p := New()
		p.RunStart(c.info)
		quantum(p, c.part, obs.QuantumRecord{Q: c.q})
		rep := p.Report()
		if len(rep.Engagement.Causes) != 1 || rep.Engagement.Causes[0].Cause != c.want.String() {
			t.Errorf("%s: causes = %+v, want 1x %q", c.name, rep.Engagement.Causes, c.want)
		}
		wantElig := int64(0)
		if c.want == CauseEngaged {
			wantElig = 1
		}
		if rep.Engagement.EligibleQuanta != wantElig {
			t.Errorf("%s: eligible = %d, want %d", c.name, rep.Engagement.EligibleQuanta, wantElig)
		}
	}
}

func TestGradedEngagement(t *testing.T) {
	p := New()
	p.RunStart(obs.RunInfo{Nodes: 4, Policy: "fixed", Lookahead: 1000})
	// Fully engaged: Q at the global minimum, all partitions loose.
	loose := &obs.Partitioning{Part: []int32{0, 1, 2, 3}, Partitions: 4, FastNodes: 4}
	quantum(p, loose, obs.QuantumRecord{Q: 1000, HostEnd: 100})
	// Partially engaged: one tight pair, two loose singletons.
	partial := &obs.Partitioning{
		Part: []int32{0, 0, 1, 2}, Partitions: 3, TightPartitions: 1, FastNodes: 2,
		MaxTightLat: 1500,
		TightLinks: []obs.Link{
			{Src: 0, Dst: 1, Latency: 1500},
			{Src: 1, Dst: 0, Latency: 1500},
		},
		TightLinkCount: 2,
	}
	quantum(p, partial, obs.QuantumRecord{Index: 1, Q: 2000, HostStart: 100, HostEnd: 300})
	quantum(p, partial, obs.QuantumRecord{Index: 2, Q: 2000, HostStart: 300, HostEnd: 600})
	// Whole cluster tight: Q above every link.
	whole := &obs.Partitioning{Part: make([]int32, 4), Partitions: 1, TightPartitions: 1, MaxTightLat: 5000, TightLinkCount: 12}
	quantum(p, whole, obs.QuantumRecord{Index: 3, Q: 9000, HostStart: 600, HostEnd: 1000})
	p.RunEnd(obs.RunSummary{GuestTime: 10000, HostEnd: 1000})
	rep := p.Report()

	e := rep.Engagement
	if e.EligibleQuanta != 1 || e.PartialQuanta != 2 || e.PartialHostNS != 500 {
		t.Fatalf("engagement: %+v", e)
	}
	if e.NodeQuanta != 16 || e.FastNodeQuanta != 4+2+2 {
		t.Fatalf("node quanta: %+v", e)
	}
	wantCauses := []CauseCount{
		{Cause: "engaged", Quanta: 1},
		{Cause: "partially-engaged", Quanta: 2},
		{Cause: "q-exceeds-lookahead", Quanta: 1},
	}
	if !reflect.DeepEqual(e.Causes, wantCauses) {
		t.Fatalf("causes: %+v", e.Causes)
	}
	if len(rep.Partitions) != 3 {
		t.Fatalf("partition levels: %+v", rep.Partitions)
	}
	if rep.Partitions[0].MaxTightLatNS != 0 || rep.Partitions[0].FastNodes != 4 || rep.Partitions[0].Quanta != 1 {
		t.Fatalf("level 0: %+v", rep.Partitions[0])
	}
	lv := rep.Partitions[1]
	if lv.MaxTightLatNS != 1500 || lv.Quanta != 2 || lv.TightPartitions != 1 ||
		len(lv.TightLinks) != 2 || lv.TightLinks[0].Src != 0 || lv.TightLinks[0].LatencyNS != 1500 {
		t.Fatalf("level 1500: %+v", lv)
	}
	if rep.Partitions[2].Partitions != 1 || rep.Partitions[2].TightLinkCount != 12 {
		t.Fatalf("level 5000: %+v", rep.Partitions[2])
	}
	// One wait per partition per quantum: 4 + 3 + 3 + 1.
	for _, h := range rep.Hists {
		if h.Name == "partition_wait_ns" && h.Hist.Count != 11 {
			t.Fatalf("partition waits observed: %d, want 11", h.Hist.Count)
		}
	}
}

// fakeProfile drives a profiler through a tiny deterministic run.
func fakeProfile() *Profiler {
	p := New()
	p.RunStart(obs.RunInfo{
		Nodes: 2, Policy: "fixed", Lookahead: 1000,
		LinkLat: func(s, d int) simtime.Duration {
			if s == 0 && d == 1 {
				return 1000
			}
			return 2000
		},
	})
	// Quantum 0: node 1 finishes 100ns before node 0 and waits for it. Q is
	// below both links, so both nodes are loose.
	p.QuantumStart(0, 0, 500, 0)
	p.QuantumPartition(0, &obs.Partitioning{Part: []int32{0, 1}, Partitions: 2, FastNodes: 2})
	p.NodePhase(0, obs.PhaseBusy, 0, 500, 0, 400)
	p.NodePhase(1, obs.PhaseIdle, 0, 500, 0, 300)
	p.Packet(obs.PacketRecord{Src: 0, Dst: 1, Latency: 1000}) // slack +500
	p.Packet(obs.PacketRecord{Src: 1, Dst: 0, Latency: 2000}) // slack +1500
	p.Packet(obs.PacketRecord{Src: 1, Dst: 0, Latency: 2000, Duplicate: true})
	p.QuantumEnd(obs.QuantumRecord{Q: 500, Packets: 2, BarrierStart: 400, HostEnd: 460, Routing: 40})
	// Quantum 1: the other way round, and a frame the quantum could swallow:
	// Q is above both links, so the cluster is one tight partition.
	p.QuantumStart(1, 500, 4000, 460)
	p.QuantumPartition(1, &obs.Partitioning{Part: []int32{0, 0}, Partitions: 1, TightPartitions: 1, MaxTightLat: 2000, TightLinkCount: 2})
	p.NodePhase(0, obs.PhaseBusy, 500, 4500, 460, 1360)
	p.NodePhase(1, obs.PhaseIdle, 500, 4500, 460, 1370)
	p.Packet(obs.PacketRecord{Src: 0, Dst: 1, Latency: 1000, Straggler: true}) // slack -3000: limiting link
	p.QuantumEnd(obs.QuantumRecord{Index: 1, Start: 500, Q: 4000, Packets: 1, Stragglers: 1,
		HostStart: 460, BarrierStart: 1370, HostEnd: 1410, Routing: 20})
	p.RunEnd(obs.RunSummary{GuestTime: 4500, HostEnd: 1410})
	return p
}

func TestReportAttribution(t *testing.T) {
	rep := fakeProfile().Report()
	if rep.Schema != Schema || !rep.Complete {
		t.Fatalf("header: %+v", rep)
	}
	if rep.Quanta != 2 || rep.Packets != 3 || rep.Stragglers != 1 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.Engine != "deterministic" || rep.GuestNS != 4500 || rep.HostNS != 1410 {
		t.Fatalf("header: %+v", rep)
	}
	if rep.Engagement.EligibleQuanta != 1 || rep.Engagement.EligibleHostNS != 460 {
		t.Fatalf("engagement: %+v", rep.Engagement)
	}
	want := Totals{ComputeNS: 1300, IdleNS: 1210, WaitNS: 110, RoutingNS: 60, BarrierNS: 40}
	if rep.Totals != want {
		t.Fatalf("totals: got %+v want %+v", rep.Totals, want)
	}
	if len(rep.PerNode) != 2 || rep.PerNode[0].ComputeNS != 1300 || rep.PerNode[1].IdleNS != 1210 || rep.PerNode[1].WaitNS != 100 {
		t.Fatalf("per-node: %+v", rep.PerNode)
	}
	if len(rep.Links) != 2 {
		t.Fatalf("links: %+v", rep.Links)
	}
	l01 := rep.Links[0]
	if l01.Src != 0 || l01.Dst != 1 || l01.Frames != 2 || l01.SlackMinNS != -3000 || l01.NegSlackFrames != 1 || l01.StaticLatNS != 1000 {
		t.Fatalf("link 0->1: %+v", l01)
	}
	// The limiting ranking must put the negative-slack link first.
	if len(rep.LimitingLinks) != 2 || rep.LimitingLinks[0].Src != 0 || rep.LimitingLinks[0].Dst != 1 || rep.LimitingLinks[0].SlackNS != -3000 {
		t.Fatalf("limiting: %+v", rep.LimitingLinks)
	}
	// Exactly one directed link (0->1) holds the static minimum latency.
	if rep.MinLatencyTied != 1 || len(rep.MinLatencyLinks) != 1 || rep.MinLatencyLinks[0].LatencyNS != 1000 {
		t.Fatalf("min-latency links: tied=%d %+v", rep.MinLatencyTied, rep.MinLatencyLinks)
	}
}

func TestReportJSONDeterministic(t *testing.T) {
	a := fakeProfile().Report().JSON()
	b := fakeProfile().Report().JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical profiles produced different JSON:\n%s\nvs\n%s", a, b)
	}
	if a[len(a)-1] != '\n' {
		t.Fatal("canonical JSON must end with a newline")
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := fakeProfile().Report()
	path := t.TempDir() + "/r.json"
	if err := rep.WriteFiles(path); err != nil {
		t.Fatal(err)
	}
	got, sweep, err := Read(path)
	if err != nil || sweep != nil {
		t.Fatalf("Read = sweep %v, error %v", sweep != nil, err)
	}
	if !bytes.Equal(got.JSON(), rep.JSON()) {
		t.Fatal("report did not round-trip through JSON")
	}
}

// retiredReport is a report written before the output-queue model was
// deleted: the same schema with an "output_queue" key and a cause label that
// no longer exist.
const retiredReport = `{"schema":"clustersim-prof/1","engine":"deterministic","nodes":4,"policy":"fixed","lookahead_ns":0,` +
	`"output_queue":true,"complete":true,"quanta":3,"engagement":{"node_quanta":12,"causes":[{"cause":"output-queue-tap","quanta":3}]}}`

// Read ignores keys it does not know, so a report from before a field was
// retired still loads, and the retired cause label comes through as data.
func TestReadRetiredReport(t *testing.T) {
	path := t.TempDir() + "/old.json"
	if err := os.WriteFile(path, []byte(retiredReport), 0o644); err != nil {
		t.Fatal(err)
	}
	r, s, err := Read(path)
	if err != nil || s != nil {
		t.Fatalf("Read = sweep %v, error %v", s != nil, err)
	}
	want := []CauseCount{{Cause: "output-queue-tap", Quanta: 3}}
	if r.Nodes != 4 || r.Quanta != 3 || !reflect.DeepEqual(r.Engagement.Causes, want) {
		t.Errorf("Read = %+v", r)
	}
	if bytes.Contains(r.JSON(), []byte("output_queue")) {
		t.Error("re-encoding kept the retired output_queue key")
	}
}

func TestSweepOrderIndependent(t *testing.T) {
	mk := func(labels []string) []byte {
		s := NewSweep()
		for _, l := range labels {
			p := s.New(l)
			p.RunStart(obs.RunInfo{Nodes: 1, Policy: l})
			quantum(p, nil, obs.QuantumRecord{Q: 10, BarrierStart: 10, HostEnd: 10})
			p.RunEnd(obs.RunSummary{GuestTime: 10, HostEnd: 12})
		}
		return s.Report().JSON()
	}
	a := mk([]string{"b/run", "a/run", "c/run"})
	b := mk([]string{"c/run", "b/run", "a/run"})
	if !bytes.Equal(a, b) {
		t.Fatal("sweep report depends on registration order")
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, a, 0o644); err != nil {
		t.Fatal(err)
	}
	single, sr, err := Read(path)
	if err != nil || single != nil {
		t.Fatalf("Read = single %v, error %v", single != nil, err)
	}
	if len(sr.Runs) != 3 || sr.Runs[0].Label != "a/run" {
		t.Fatalf("sweep runs: %+v", sr.Runs)
	}
}

func TestSweepCollapsesIdenticalDuplicates(t *testing.T) {
	s := NewSweep()
	for i := 0; i < 3; i++ {
		p := s.New("same/label")
		p.RunStart(obs.RunInfo{Nodes: 1, Policy: "p"})
		quantum(p, nil, obs.QuantumRecord{Q: 10, BarrierStart: 10, HostEnd: 10})
		p.RunEnd(obs.RunSummary{GuestTime: 10, HostEnd: 12})
	}
	if got := s.Report(); len(got.Runs) != 1 {
		t.Fatalf("want 1 collapsed run, got %d", len(got.Runs))
	}
}

// TestLoadSweepRejectsMissingReport: a sweep file is outside input, and a run
// without a report would be a nil dereference in every consumer.
func TestLoadSweepRejectsMissingReport(t *testing.T) {
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(path); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("Read = %v, want an error naming run \"x\"", err)
	}
}

// A nested report of another schema decodes into a zero Report, which every
// consumer would render as a table of zeros: Read holds each run of a sweep
// to Schema, naming file and label.
func TestLoadSweepRejectsForeignReport(t *testing.T) {
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a","report":{"schema":"zzz"}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Read(path)
	if err == nil {
		t.Fatal("Read accepted a sweep run whose report has schema \"zzz\"")
	}
	for _, want := range []string{path, `"a"`, `"zzz"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// FuzzLoadReport: a report file is outside input. Read never panics on it,
// every error names the file, and what it accepts is exactly one of the two
// artifacts, carrying its schema all the way down, and encodes again.
func FuzzLoadReport(f *testing.F) {
	for _, s := range []string{
		``, `{}`, `[]`, `null`, `{"schema":7}`, `{"schema":"clustersim-prof/1","nodes":"x"}`,
		`{"schema":"clustersim-prof/1","engine":"deterministic","nodes":2,"complete":true,"per_node":[{"node":1}],"links":[{"src":0,"dst":1}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a","report":{"schema":"clustersim-prof/1","links":[{"src":0,"dst":1}]}}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"x"}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a","report":{"schema":"zzz"}}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[null]}`,
		retiredReport,
	} {
		f.Add([]byte(s))
	}
	path := f.TempDir() + "/in.json"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, s, err := Read(path)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), path) {
				t.Errorf("Read error %q does not name the file", err)
			}
			if r != nil || s != nil {
				t.Errorf("Read returned an artifact beside error %q", err)
			}
		case (r == nil) == (s == nil):
			t.Fatalf("Read accepted the file as single %v and sweep %v", r != nil, s != nil)
		case r != nil:
			if r.Schema != Schema {
				t.Errorf("Read accepted schema %q", r.Schema)
			}
			r.JSON()
			r.NodesCSV()
			r.LinksCSV()
		default:
			if s.Schema != SweepSchema {
				t.Errorf("Read accepted sweep schema %q", s.Schema)
			}
			for _, run := range s.Runs {
				if run.Report == nil || run.Report.Schema != Schema {
					t.Fatalf("Read accepted run %q without a %s report", run.Label, Schema)
				}
			}
			s.JSON()
			s.LinksCSV()
		}
	})
}
