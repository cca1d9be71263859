package workloads

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"clustersim/internal/guest"
	"clustersim/internal/mpi"
	"clustersim/internal/simtime"
)

// TraceOp is one operation of a recorded communication trace. Op selects
// the action; the other fields apply per the table:
//
//	op          fields
//	compute     ns
//	send        dst, bytes, tag
//	recv        src (-1 = any source), tag (-1 = any tag)
//	sendrecv    dst (peer), bytes, tag
//	barrier     —
//	allreduce   bytes
//	alltoall    bytes (per pair)
//	bcast       src (root), bytes
//	sleep       ns
//
// Tags lie in [0, mpi.MaxTag); the tags above belong to the collectives.
type TraceOp struct {
	Op    string `json:"op"`
	NS    int64  `json:"ns,omitempty"`
	Src   int    `json:"src,omitempty"`
	Dst   int    `json:"dst,omitempty"`
	Tag   int    `json:"tag,omitempty"`
	Bytes int    `json:"bytes,omitempty"`
}

// TraceFile is a JSON-serializable communication trace: one op list per
// rank. It lets recorded applications (e.g. from MPI profiling tools) run
// through the simulator without writing Go code.
type TraceFile struct {
	// Name labels the workload in results.
	Name string `json:"name"`
	// Ranks must match the cluster size at run time.
	Ranks int `json:"ranks"`
	// Ops holds each rank's operation sequence.
	Ops [][]TraceOp `json:"ops"`
}

// ParseTrace reads a JSON trace.
func ParseTrace(r io.Reader) (*TraceFile, error) {
	var t TraceFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("workloads: parsing trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate reports structural errors in the trace.
func (t *TraceFile) Validate() error {
	if t.Ranks < 1 {
		return fmt.Errorf("workloads: trace needs at least 1 rank, got %d", t.Ranks)
	}
	if len(t.Ops) != t.Ranks {
		return fmt.Errorf("workloads: trace has op lists for %d ranks, declared %d", len(t.Ops), t.Ranks)
	}
	for rank, ops := range t.Ops {
		for i, op := range ops {
			if err := op.validate(t.Ranks); err != nil {
				return fmt.Errorf("workloads: trace rank %d op %d: %w", rank, i, err)
			}
		}
	}
	return nil
}

func (op *TraceOp) validate(ranks int) error {
	checkPeer := func(p int, allowAny bool) error {
		if allowAny && p == -1 {
			return nil
		}
		if p < 0 || p >= ranks {
			return fmt.Errorf("peer %d out of range [0,%d)", p, ranks)
		}
		return nil
	}
	checkTag := func(allowAny bool) error {
		if allowAny && op.Tag == -1 {
			return nil
		}
		if op.Tag < 0 || op.Tag >= mpi.MaxTag {
			return fmt.Errorf("%s tag %d out of range [0,%d)", op.Op, op.Tag, mpi.MaxTag)
		}
		return nil
	}
	switch op.Op {
	case "compute", "sleep":
		if op.NS < 0 {
			return fmt.Errorf("negative duration %d", op.NS)
		}
	case "send", "sendrecv":
		if op.Bytes < 0 {
			return fmt.Errorf("negative size %d", op.Bytes)
		}
		if err := checkPeer(op.Dst, false); err != nil {
			return err
		}
		return checkTag(false)
	case "recv":
		if err := checkPeer(op.Src, true); err != nil {
			return err
		}
		return checkTag(true)
	case "barrier", "allreduce", "alltoall":
		if op.Bytes < 0 {
			return fmt.Errorf("negative size %d", op.Bytes)
		}
	case "bcast":
		if op.Bytes < 0 {
			return fmt.Errorf("negative size %d", op.Bytes)
		}
		return checkPeer(op.Src, false)
	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
	return nil
}

// Workload builds the runnable workload. Rank 0 reports "time_s", the guest
// duration of its op list.
func (t *TraceFile) Workload() Workload {
	name := t.Name
	if name == "" {
		name = "trace"
	}
	// Fingerprint the full op stream (hashed — op lists can be large) so
	// identical traces share memoized baselines.
	fp := fnv.New64a()
	fmt.Fprintf(fp, "%+v", *t)
	return Workload{
		Name:   name,
		Key:    fmt.Sprintf("trace|%s|%d|%016x", name, t.Ranks, fp.Sum64()),
		Metric: "time_s",
		New: func(rank, size int) guest.Program {
			return func(pr *guest.Proc) error {
				if size != t.Ranks {
					return fmt.Errorf("trace %q has %d ranks but the cluster has %d nodes", name, t.Ranks, size)
				}
				c := mpi.New(pr)
				start := pr.Now()
				for _, op := range t.Ops[rank] {
					switch op.Op {
					case "compute":
						pr.Compute(simtime.Duration(op.NS))
					case "sleep":
						pr.Sleep(simtime.Duration(op.NS))
					case "send":
						c.Send(op.Dst, op.Tag, op.Bytes)
					case "recv":
						c.Recv(op.Src, op.Tag)
					case "sendrecv":
						c.Sendrecv(op.Dst, op.Tag, op.Bytes)
					case "barrier":
						c.Barrier()
					case "allreduce":
						c.Allreduce(op.Bytes)
					case "alltoall":
						c.Alltoall(op.Bytes)
					case "bcast":
						c.Bcast(op.Src, op.Bytes)
					}
				}
				if rank == 0 {
					pr.Report("time_s", seconds(pr.Now().Sub(start)))
				}
				return nil
			}
		},
	}
}
