package workloads_test

import (
	"fmt"
	"strings"
	"testing"

	"clustersim/internal/mpi"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

const pingTrace = `{
  "name": "trace.ping",
  "ranks": 2,
  "ops": [
    [{"op":"compute","ns":50000},
     {"op":"send","dst":1,"tag":7,"bytes":4000},
     {"op":"recv","src":1,"tag":8},
     {"op":"barrier"},
     {"op":"allreduce","bytes":16}],
    [{"op":"recv","src":0,"tag":7},
     {"op":"compute","ns":20000},
     {"op":"send","dst":0,"tag":8,"bytes":4000},
     {"op":"barrier"},
     {"op":"allreduce","bytes":16}]
  ]
}`

func TestTraceFileRuns(t *testing.T) {
	tf, err := workloads.ParseTrace(strings.NewReader(pingTrace))
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, tf.Workload(), 2, simtime.Microsecond)
	v, ok := res.Metric("time_s")
	if !ok || v <= 0 {
		t.Fatalf("trace metric %v ok=%v", v, ok)
	}
	// compute 50µs + roundtrip + barrier: at least 70µs.
	if res.GuestTime < simtime.Guest(70*simtime.Microsecond) {
		t.Errorf("trace guest time %v implausibly short", res.GuestTime)
	}
	if res.Stats.Packets == 0 {
		t.Error("trace sent no packets")
	}
}

func TestTraceFileCollectivesAndWildcards(t *testing.T) {
	src := `{
	  "name": "trace.coll",
	  "ranks": 3,
	  "ops": [
	    [{"op":"alltoall","bytes":1000},{"op":"bcast","src":1,"bytes":2048},{"op":"send","dst":2,"tag":5,"bytes":10}],
	    [{"op":"alltoall","bytes":1000},{"op":"bcast","src":1,"bytes":2048}],
	    [{"op":"alltoall","bytes":1000},{"op":"bcast","src":1,"bytes":2048},{"op":"recv","src":-1,"tag":-1}]
	  ]
	}`
	tf, err := workloads.ParseTrace(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	run(t, tf.Workload(), 3, 50*simtime.Microsecond)
}

func TestTraceFileValidation(t *testing.T) {
	bad := []string{
		`{"ranks":0,"ops":[]}`,
		`{"ranks":2,"ops":[[]]}`,
		`{"ranks":1,"ops":[[{"op":"warp"}]]}`,
		`{"ranks":1,"ops":[[{"op":"send","dst":5}]]}`,
		`{"ranks":1,"ops":[[{"op":"compute","ns":-1}]]}`,
		`{"ranks":1,"ops":[[{"op":"bcast","src":-1}]]}`,
		`{"ranks":1,"ops":[[{"op":"send","dst":0,"bytes":-2}]]}`,
		`{"ranks":1,"ops":[[{"op":"send","dst":0,"tag":-1}]]}`,
		`{"ranks":1,"ops":[[{"op":"recv","src":0,"tag":-2}]]}`,
		`{"ranks":1,"unknown_field":1,"ops":[[]]}`,
		`not json`,
	}
	for i, src := range bad {
		if _, err := workloads.ParseTrace(strings.NewReader(src)); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// A user tag in the collectives' range would be matched by a collective's
// receive: the parser rejects it, naming the rank, the op and the tag, and
// keeps the tag just below the bound and recv's any-tag.
func TestTraceFileTagBound(t *testing.T) {
	for _, op := range []string{"send", "sendrecv", "recv"} {
		peer := `"dst":0`
		if op == "recv" {
			peer = `"src":0`
		}
		src := fmt.Sprintf(`{"ranks":1,"ops":[[{"op":"barrier"},{"op":%q,%s,"tag":%d},{"op":"barrier"}]]}`, op, peer, mpi.MaxTag)
		_, err := workloads.ParseTrace(strings.NewReader(src))
		want := fmt.Sprintf("trace rank 0 op 1: %s tag %d out of range [0,%d)", op, mpi.MaxTag, mpi.MaxTag)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s at tag MaxTag: error %v, want it to contain %q", op, err, want)
		}
	}
	ok := fmt.Sprintf(`{"ranks":1,"ops":[[{"op":"send","dst":0,"tag":%d},{"op":"recv","src":-1,"tag":-1}]]}`, mpi.MaxTag-1)
	if _, err := workloads.ParseTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("tag MaxTag-1 and recv's any-tag rejected: %v", err)
	}
}

func TestTraceFileWrongClusterSize(t *testing.T) {
	tf, err := workloads.ParseTrace(strings.NewReader(pingTrace))
	if err != nil {
		t.Fatal(err)
	}
	w := tf.Workload()
	if _, err := runErr(w, 3); err == nil {
		t.Error("trace ran on the wrong cluster size")
	}
}
