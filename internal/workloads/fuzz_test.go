package workloads_test

import (
	"strings"
	"testing"

	"clustersim/internal/workloads"
)

// FuzzParseTrace: arbitrary input must never panic the parser, and anything
// accepted must pass its own Validate.
func FuzzParseTrace(f *testing.F) {
	f.Add(pingTrace)
	f.Add(`{"ranks":1,"ops":[[]]}`)
	f.Add(`{"ranks":2,"ops":[[{"op":"send","dst":1}],[{"op":"recv","src":-1,"tag":-1}]]}`)
	// A user tag at mpi.MaxTag, where a barrier's receive would match it.
	f.Add(`{"ranks":2,"ops":[[{"op":"send","dst":1,"tag":16777216},{"op":"barrier"}],[{"op":"barrier"}]]}`)
	f.Add(`{}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, src string) {
		tf, err := workloads.ParseTrace(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := tf.Validate(); err != nil {
			t.Fatalf("ParseTrace accepted a trace its own Validate rejects: %v", err)
		}
	})
}
