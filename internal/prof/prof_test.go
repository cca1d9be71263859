package prof

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
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

// A quantum's row is read off its partitioning, and a quantum without one is
// a run whose lookahead is ruled out: it has no row. RunInfo.Lookahead is not
// consulted: the cases set it where Q <= Lookahead would decide otherwise.
func TestCauseClassification(t *testing.T) {
	loose := &obs.Partitioning{Part: []int32{0, 1}, Partitions: 2, Loose: 2}
	whole := &obs.Partitioning{Part: []int32{0, 0}, Partitions: 1, TightPartitions: 1, MaxTightLat: 1000}
	cases := []struct {
		name      string
		info      obs.RunInfo
		part      *obs.Partitioning
		q         simtime.Duration
		wantRows  int
		wantLoose int
	}{
		{"engaged", obs.RunInfo{Nodes: 2}, loose, 1000, 1, 2},
		{"q-exceeds", obs.RunInfo{Nodes: 2, Lookahead: 1000}, whole, 1000, 1, 0},
		{"no-lookahead", obs.RunInfo{Nodes: 2, Lookahead: 1000}, nil, 10, 0, 0},
	}
	for _, c := range cases {
		p := New()
		p.RunStart(c.info)
		quantum(p, c.part, obs.QuantumRecord{Q: c.q, HostEnd: 7})
		rep := p.Report()
		if rep.Quanta != 1 || len(rep.Partitions) != c.wantRows {
			t.Fatalf("%s: %d quanta, rows %+v; want 1 quantum in %d rows", c.name, rep.Quanta, rep.Partitions, c.wantRows)
		}
		if c.wantRows == 1 {
			if lv := rep.Partitions[0]; lv.Loose != c.wantLoose || lv.Quanta != 1 || lv.HostNS != 7 {
				t.Errorf("%s: row %+v, want %d loose nodes over 1 quantum spanning 7ns", c.name, lv, c.wantLoose)
			}
		}
	}
}

func TestGradedEngagement(t *testing.T) {
	p := New()
	// Nodes 0 and 1 are 1.5µs apart, every other pair 5µs.
	p.RunStart(obs.RunInfo{Nodes: 4, Policy: "fixed", Lookahead: 1500,
		LinkLat: func(s, d int) simtime.Duration {
			if s+d == 1 {
				return 1500
			}
			return 5000
		}})
	// Fully engaged: Q at the global minimum, all partitions loose.
	loose := &obs.Partitioning{Part: []int32{0, 1, 2, 3}, Partitions: 4, Loose: 4}
	quantum(p, loose, obs.QuantumRecord{Q: 1000, HostEnd: 100})
	// Partially engaged: one tight pair, two loose singletons.
	partial := &obs.Partitioning{
		Part: []int32{0, 0, 1, 2}, Partitions: 3, TightPartitions: 1, Loose: 2, MaxTightLat: 1500,
	}
	quantum(p, partial, obs.QuantumRecord{Index: 1, Q: 2000, HostStart: 100, HostEnd: 300})
	quantum(p, partial, obs.QuantumRecord{Index: 2, Q: 2000, HostStart: 300, HostEnd: 600})
	// Whole cluster tight: Q above every link.
	whole := &obs.Partitioning{Part: make([]int32, 4), Partitions: 1, TightPartitions: 1, MaxTightLat: 5000}
	quantum(p, whole, obs.QuantumRecord{Index: 3, Q: 9000, HostStart: 600, HostEnd: 1000})
	p.RunEnd(obs.RunSummary{GuestTime: 10000, HostEnd: 1000})
	rep := p.Report()

	if len(rep.Partitions) != 3 {
		t.Fatalf("partition levels: %+v", rep.Partitions)
	}
	if lv := rep.Partitions[0]; lv.MaxTightLatNS != 0 || lv.Loose != 4 || lv.Quanta != 1 || lv.HostNS != 100 || lv.TightLinkCount != 0 {
		t.Fatalf("level 0: %+v", lv)
	}
	want := []LinkRef{{Src: 0, Dst: 1, LatencyNS: 1500}, {Src: 1, Dst: 0, LatencyNS: 1500}}
	if lv := rep.Partitions[1]; lv.MaxTightLatNS != 1500 || lv.Loose != 2 || lv.Quanta != 2 || lv.HostNS != 500 ||
		lv.TightPartitions != 1 || lv.TightLinkCount != 2 || !reflect.DeepEqual(lv.TightLinks, want) {
		t.Fatalf("level 1500: %+v", lv)
	}
	// Every directed link is tight at the top level: 4×3, the two 1.5µs ones
	// ranked first.
	if lv := rep.Partitions[2]; lv.Partitions != 1 || lv.Loose != 0 || lv.HostNS != 400 || lv.TightLinkCount != 12 ||
		len(lv.TightLinks) != 12 || !reflect.DeepEqual(lv.TightLinks[:2], want) || lv.TightLinks[2] != (LinkRef{Src: 0, Dst: 2, LatencyNS: 5000}) {
		t.Fatalf("level 5000: %+v", lv)
	}
	if !reflect.DeepEqual(rep.MinLatencyLinks, want) || rep.MinLatencyTied != 2 {
		t.Fatalf("min-latency links: tied=%d %+v", rep.MinLatencyTied, rep.MinLatencyLinks)
	}
	// One wait per partition per quantum: 4 + 3 + 3 + 1.
	for _, h := range rep.Hists {
		if h.Name == "partition_wait_ns" && h.Hist.Count != 11 {
			t.Fatalf("partition waits observed: %d, want 11", h.Hist.Count)
		}
	}
}

// Every link ranking stops at one cap and keeps its full count: on a uniform
// fabric of 8 nodes all 56 directed links tie at the lookahead.
func TestLinkRankingCap(t *testing.T) {
	p := New()
	p.RunStart(obs.RunInfo{Nodes: 8, Lookahead: 1000, LinkLat: func(int, int) simtime.Duration { return 1000 }})
	quantum(p, &obs.Partitioning{Part: make([]int32, 8), Partitions: 1, TightPartitions: 1, MaxTightLat: 1000}, obs.QuantumRecord{Q: 2000})
	rep := p.Report()
	lv := rep.Partitions[0]
	if len(rep.MinLatencyLinks) != maxRankedLinks || rep.MinLatencyTied != 56 || len(lv.TightLinks) != maxRankedLinks || lv.TightLinkCount != 56 {
		t.Fatalf("min-latency %d of %d, tight %d of %d; want %d of 56 each",
			len(rep.MinLatencyLinks), rep.MinLatencyTied, len(lv.TightLinks), lv.TightLinkCount, maxRankedLinks)
	}
	if !reflect.DeepEqual(rep.MinLatencyLinks, lv.TightLinks) || lv.TightLinks[7] != (LinkRef{Src: 1, Dst: 0, LatencyNS: 1000}) {
		t.Errorf("rankings differ or are not in (src, dst) order: %+v", lv.TightLinks)
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
	p.QuantumPartition(0, &obs.Partitioning{Part: []int32{0, 1}, Partitions: 2, Loose: 2})
	p.NodePhase(0, obs.PhaseBusy, 0, 500, 0, 400)
	p.NodePhase(1, obs.PhaseIdle, 0, 500, 0, 300)
	p.Packet(obs.PacketRecord{Src: 0, Dst: 1, Latency: 1000}) // slack +500
	p.Packet(obs.PacketRecord{Src: 1, Dst: 0, Latency: 2000}) // slack +1500
	p.Packet(obs.PacketRecord{Src: 1, Dst: 0, Latency: 2000, Duplicate: true})
	p.QuantumEnd(obs.QuantumRecord{Q: 500, Packets: 2, BarrierStart: 400, HostEnd: 460, Routing: 40})
	// Quantum 1: the other way round, and a frame the quantum could swallow:
	// Q is above both links, so the cluster is one tight partition.
	p.QuantumStart(1, 500, 4000, 460)
	p.QuantumPartition(1, &obs.Partitioning{Part: []int32{0, 0}, Partitions: 1, TightPartitions: 1, MaxTightLat: 2000})
	p.NodePhase(0, obs.PhaseBusy, 500, 4500, 460, 1360)
	p.NodePhase(1, obs.PhaseIdle, 500, 4500, 460, 1370)
	p.Packet(obs.PacketRecord{Src: 0, Dst: 1, Latency: 1000, Straggler: true}) // slack -3000
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
	wantRows := []PartitionLevel{
		{Partitions: 2, Loose: 2, Quanta: 1, HostNS: 460},
		{MaxTightLatNS: 2000, Partitions: 1, TightPartitions: 1, Quanta: 1, HostNS: 950, TightLinkCount: 2,
			TightLinks: []LinkRef{{Src: 0, Dst: 1, LatencyNS: 1000}, {Src: 1, Dst: 0, LatencyNS: 2000}}},
	}
	if !reflect.DeepEqual(rep.Partitions, wantRows) {
		t.Fatalf("partition table: %+v", rep.Partitions)
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

// A document round-trips through its files: each run's report comes back
// byte for byte, and both sidecars carry a row per node or link under the
// run's label, quoted where the label holds a comma (a fault plan's key).
func TestReportRoundTrip(t *testing.T) {
	rep := fakeProfile().Report()
	labels := []string{"fake/2/fixed", `fake/2/fixed/faults:seed=1;loss=0.01,dup=0,"x"`}
	doc := &SweepReport{Schema: SweepSchema}
	for _, l := range labels {
		doc.Runs = append(doc.Runs, SweepRun{Label: l, Report: rep})
	}
	dir := t.TempDir()
	if err := doc.WriteFiles(dir + "/r.json"); err != nil {
		t.Fatal(err)
	}
	got, err := Read(dir + "/r.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.JSON(), doc.JSON()) || !bytes.Equal(got.Runs[0].Report.JSON(), rep.JSON()) {
		t.Fatal("document did not round-trip through JSON")
	}
	for _, c := range []struct {
		file       string
		head       string
		rowsPerRun int
	}{
		{"r.nodes.csv", "label,node,compute_ns,idle_ns,wait_ns", len(rep.PerNode)},
		{"r.links.csv", "label,src,dst,frames,static_lat_ns,lat_min_ns,lat_max_ns,lat_sum_ns,slack_min_ns,neg_slack_frames", len(rep.Links)},
	} {
		f, err := os.Open(filepath.Join(dir, c.file))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll() // a row of the wrong width is an error
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if strings.Join(rows[0], ",") != c.head || len(rows) != 1+len(labels)*c.rowsPerRun {
			t.Fatalf("%s: head %q and %d rows, want %q and %d", c.file, rows[0], len(rows)-1, c.head, len(labels)*c.rowsPerRun)
		}
		for i, row := range rows[1:] {
			if want := labels[i/c.rowsPerRun]; row[0] != want {
				t.Errorf("%s row %d: label %q, want %q", c.file, i, row[0], want)
			}
		}
	}
}

// retiredReport is a report in the first encoding (clustersim-prof/1), which
// carried an engagement block beside the partition table.
const retiredReport = `{"schema":"clustersim-prof/1","engine":"deterministic","nodes":4,"policy":"fixed","lookahead_ns":0,` +
	`"complete":true,"quanta":3,"engagement":{"node_quanta":12,"causes":[{"cause":"no-lookahead","quanta":3}]}}`

// Read refuses a report of the retired encoding by its schema, and so a bare
// report of the current one, which is a run's body and not a document; it
// ignores keys it does not know in a run's report, dropping them on
// re-encoding.
func TestReadRetiredReport(t *testing.T) {
	dir := t.TempDir()
	for name, doc := range map[string]string{
		"old.json":  retiredReport,
		"bare.json": `{"schema":"` + Schema + `","nodes":4,"quanta":3}`,
	} {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		schema := doc[len(`{"schema":`):strings.Index(doc, ",")]
		if _, err := Read(path); err == nil || !strings.Contains(err.Error(), schema) || !strings.Contains(err.Error(), path) {
			t.Errorf("Read(%s) = %v, want an error naming the file and its schema %s", name, err, schema)
		}
	}
	extra := dir + "/extra.json"
	doc := `{"schema":"` + SweepSchema + `","runs":[{"label":"a","report":{"schema":"` + Schema + `","nodes":4,"quanta":3,"engagement":{"node_quanta":12}}}]}`
	if err := os.WriteFile(extra, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Read(extra)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Runs[0].Report; r.Nodes != 4 || r.Quanta != 3 || bytes.Contains(s.JSON(), []byte("engagement")) {
		t.Errorf("Read = %+v, re-encoded:\n%s", r, s.JSON())
	}
}

// A document with no runs would render an empty table and exit 0: Read
// refuses it, naming the file, whether runs is empty or missing.
func TestReadRejectsEmptyDocument(t *testing.T) {
	dir := t.TempDir()
	for i, doc := range []string{`{"schema":"` + SweepSchema + `","runs":[]}`, `{"schema":"` + SweepSchema + `"}`} {
		path := fmt.Sprintf("%s/empty%d.json", dir, i)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path); err == nil || err.Error() != "prof: "+path+": no runs" {
			t.Errorf("Read(%s) = %v, want prof: %s: no runs", doc, err, path)
		}
	}
}

func TestSweepOrderIndependent(t *testing.T) {
	mk := func(labels []string) []byte {
		s := &Sweep{}
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
	sr, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 3 || sr.Runs[0].Label != "a/run" {
		t.Fatalf("sweep runs: %+v", sr.Runs)
	}
}

func TestSweepCollapsesIdenticalDuplicates(t *testing.T) {
	s := &Sweep{}
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

// Two different runs under one label cannot be told apart by any consumer:
// Read refuses the sweep, naming the file and the label.
func TestSweepRejectsRepeatedLabels(t *testing.T) {
	s := &Sweep{}
	for _, host := range []simtime.Host{12, 13} {
		p := s.New("same/label")
		p.RunStart(obs.RunInfo{Nodes: 1, Policy: "p"})
		quantum(p, nil, obs.QuantumRecord{Q: 10, BarrierStart: 10, HostEnd: 10})
		p.RunEnd(obs.RunSummary{GuestTime: 10, HostEnd: host})
	}
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, s.Report().JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), `"same/label"`) || !strings.Contains(err.Error(), path) {
		t.Errorf("Read = %v, want an error naming the file and the label", err)
	}
}

// TestLoadSweepRejectsMissingReport: a sweep file is outside input, and a run
// without a report would be a nil dereference in every consumer.
func TestLoadSweepRejectsMissingReport(t *testing.T) {
	path := t.TempDir() + "/s.json"
	if err := os.WriteFile(path, []byte(`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), `"x"`) {
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
	_, err := Read(path)
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
// every error names the file, and what it accepts is a document of at least
// one run under labels of their own, carrying its schema all the way down,
// that encodes again.
func FuzzLoadReport(f *testing.F) {
	for _, s := range []string{
		``, `{}`, `[]`, `null`, `{"schema":7}`, `{"schema":"clustersim-prof/2","nodes":"x"}`,
		`{"schema":"clustersim-prof/2","engine":"deterministic","nodes":2,"complete":true,"per_node":[{"node":1}],"links":[{"src":0,"dst":1}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a","report":{"schema":"clustersim-prof/2","links":[{"src":0,"dst":1}]}}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"x"}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a","report":{"schema":"zzz"}}]}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[null]}`,
		retiredReport,
		`{"schema":"clustersim-prof-sweep/1","runs":[]}`,
		`{"schema":"clustersim-prof-sweep/1"}`,
		`{"schema":"clustersim-prof-sweep/1","runs":[{"label":"a,b","report":{"schema":"clustersim-prof/2","per_node":[{"node":0}]}}]}`,
	} {
		f.Add([]byte(s))
	}
	path := f.TempDir() + "/in.json"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Read(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Errorf("Read error %q does not name the file", err)
			}
			if s != nil {
				t.Errorf("Read returned a document beside error %q", err)
			}
			return
		}
		if s.Schema != SweepSchema || len(s.Runs) == 0 {
			t.Fatalf("Read accepted schema %q with %d runs", s.Schema, len(s.Runs))
		}
		seen := map[string]bool{}
		for _, run := range s.Runs {
			if run.Report == nil || run.Report.Schema != Schema || seen[run.Label] {
				t.Fatalf("Read accepted run %q without a %s report of its own", run.Label, Schema)
			}
			seen[run.Label] = true
		}
		s.JSON()
		s.NodesCSV()
		s.LinksCSV()
	})
}
