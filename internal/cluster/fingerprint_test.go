package cluster

import (
	"reflect"
	"strings"
	"testing"

	"clustersim/internal/faults"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// The canonical encoding must be insensitive to packet stream order (the one
// engine-path difference the equivalence tests allow) and sensitive to
// everything else a Result and its recorder assert.
func TestFingerprintCanonicalization(t *testing.T) {
	base := func() (*Result, *obs.Recorder) {
		return runRecorded(t, testConfig(3, workloads.Uniform(40, 1500, 25*simtime.Microsecond, 5), fixed(simtime.Microsecond)))
	}
	enc := func(r *Result, rec *obs.Recorder) string { return string(CanonicalResult(r, rec)) }

	a, aRec := base()
	want := enc(a, aRec)
	if want != enc(base()) {
		t.Fatal("identical runs produced different canonical encodings")
	}
	if len(aRec.Packets) < 2 {
		t.Fatal("run routed too few packets to test order insensitivity")
	}

	// Reversing the packet stream must not change the encoding...
	rev := &obs.Recorder{Quanta: aRec.Quanta, Packets: append([]obs.PacketRecord(nil), aRec.Packets...)}
	for i, j := 0, len(rev.Packets)-1; i < j; i, j = i+1, j-1 {
		rev.Packets[i], rev.Packets[j] = rev.Packets[j], rev.Packets[i]
	}
	if want != enc(a, rev) {
		t.Error("canonical encoding depends on packet stream order")
	}

	// ...but any change to a packet, a stat, a metric, or a time must; the
	// Result's own fields move the one-argument Fingerprint as well.
	mutations := []struct {
		name string
		mut  func(r *Result, rec *obs.Recorder)
	}{
		{"guest time", func(r *Result, _ *obs.Recorder) { r.GuestTime++ }},
		{"host time", func(r *Result, _ *obs.Recorder) { r.HostTime++ }},
		{"policy name", func(r *Result, _ *obs.Recorder) { r.PolicyName += "x" }},
		{"node finish", func(r *Result, _ *obs.Recorder) { r.NodeFinish[1]++ }},
		{"stats quanta", func(r *Result, _ *obs.Recorder) { r.Stats.Quanta++ }},
		{"stats stragglers", func(r *Result, _ *obs.Recorder) { r.Stats.Stragglers++ }},
		{"stats graded", func(r *Result, _ *obs.Recorder) { r.Stats.FastPartialQuanta++ }},
		{"metric value", func(r *Result, _ *obs.Recorder) {
			for k := range r.Metrics[0] {
				r.Metrics[0][k]++
				break
			}
		}},
		{"quantum record", func(_ *Result, rec *obs.Recorder) { rec.Quanta[0].Packets++ }},
		{"packet size", func(_ *Result, rec *obs.Recorder) { rec.Packets[0].Size++ }},
		{"packet dropped bit", func(_ *Result, rec *obs.Recorder) { rec.Packets[0].Dropped = !rec.Packets[0].Dropped }},
	}
	const resultMutations = 8
	for i, m := range mutations {
		r, rec := base()
		m.mut(r, rec)
		if enc(r, rec) == want {
			t.Errorf("mutation %q did not change the canonical encoding", m.name)
		}
		if moved := Fingerprint(r) != Fingerprint(a); moved != (i < resultMutations) {
			t.Errorf("mutation %q: Fingerprint moved = %v", m.name, moved)
		}
	}
}

// The canonical bytes are versioned and structured; spot-check the header so
// a schema bump cannot happen silently, and that a recording only appends to
// what the unrecorded form — the bytes Fingerprint hashes — says.
func TestCanonicalResultHeader(t *testing.T) {
	res, rec := runRecorded(t, testConfig(2, workloads.PingPong(5, 500), fixed(simtime.Microsecond)))
	enc := string(CanonicalResult(res, nil))
	if !strings.HasPrefix(enc, FingerprintSchema+"\n") {
		t.Errorf("canonical encoding does not start with the schema line:\n%s", enc[:80])
	}
	if !strings.Contains(enc, "\nstats ") {
		t.Error("canonical encoding lacks a stats line")
	}
	if strings.Contains(enc, "\nquantum ") || strings.Contains(enc, "\npacket ") {
		t.Error("unrecorded canonical encoding carries record lines")
	}
	full := string(CanonicalResult(res, rec))
	if !strings.HasPrefix(full, enc) ||
		strings.Count(full, "\nquantum ") != len(rec.Quanta) || strings.Count(full, "\npacket ") != len(rec.Packets) {
		t.Errorf("recorded encoding is not the unrecorded one plus %d quantum and %d packet lines", len(rec.Quanta), len(rec.Packets))
	}
	if res.Stats.Quanta == 0 || len(rec.Quanta) != res.Stats.Quanta || len(rec.Packets) == 0 {
		t.Errorf("recorder holds %d quanta and %d packets, Stats.Quanta = %d", len(rec.Quanta), len(rec.Packets), res.Stats.Quanta)
	}
}

// SortPacketsCanonical must be a pure reordering: same multiset, and a
// total order (sorting twice, or sorting a shuffled copy, is stable).
func TestSortPacketsCanonicalIsTotal(t *testing.T) {
	cfg := testConfig(4, workloads.Uniform(60, 1500, 20*simtime.Microsecond, 23), fixed(simtime.Microsecond))
	cfg.Faults = &faults.Plan{Seed: 42, Default: faults.Link{Loss: 0.3}}
	_, rec := runRecorded(t, cfg)
	sorted := SortPacketsCanonical(rec.Packets)
	if len(sorted) != len(rec.Packets) {
		t.Fatalf("sort changed length: %d -> %d", len(rec.Packets), len(sorted))
	}
	rev := append([]obs.PacketRecord(nil), rec.Packets...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if !reflect.DeepEqual(sorted, SortPacketsCanonical(rev)) {
		t.Error("canonical order depends on input order")
	}
}
