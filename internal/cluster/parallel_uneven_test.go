package cluster

import (
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// quantumLog collects every QuantumEnd record. The parallel controller fires
// QuantumEnd from its own goroutine only (with the run mutex held), so no
// locking is needed here — -race confirms that claim.
type quantumLog struct {
	obs.Base
	recs []obs.QuantumRecord
}

func (q *quantumLog) QuantumEnd(rec obs.QuantumRecord) { q.recs = append(q.recs, rec) }

// TestParallelUnevenFinishBookkeeping drives a workload whose ranks finish at
// very different guest times — rank r computes (r+1) phases, so with a small
// fixed quantum the fast ranks stand done at the barrier for most of the run.
// It pins the HostBarrier accounting: Stats.HostBarrier must equal the sum of
// the per-quantum barrier spans exactly, every span must lie inside its
// quantum, and the quantum count must match the record stream however the
// finishes interleave. Run under -race this also stresses the arrival
// pre-counting of already-done nodes.
func TestParallelUnevenFinishBookkeeping(t *testing.T) {
	const nodes = 5
	uneven := func(rank, size int) guest.Program {
		return func(p *guest.Proc) error {
			for i := 0; i <= rank; i++ {
				p.Compute(60 * simtime.Microsecond)
				if rank != 0 {
					p.Send(0, 0, 256, nil)
				}
			}
			if rank == 0 {
				// Rank 0 drains every other rank's messages (rank r sends
				// r+1 of them), so it is the last to finish while the rest
				// sit done at the barrier.
				for got := 0; got < size*(size+1)/2-1; got++ {
					p.Recv()
				}
			}
			p.Report("rounds", float64(rank+1))
			return nil
		}
	}
	for iter := 0; iter < 4; iter++ {
		log := &quantumLog{}
		cfg := testConfig(nodes, workloads.Workload{New: uneven}, fixed(20*simtime.Microsecond))
		cfg.Observer = log
		res, err := RunParallel(cfg, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Quanta != len(log.recs) {
			t.Fatalf("Stats.Quanta = %d but %d QuantumEnd records", res.Stats.Quanta, len(log.recs))
		}
		var barrier simtime.Duration
		for i, rec := range log.recs {
			if rec.Index != i {
				t.Fatalf("record %d has index %d", i, rec.Index)
			}
			if rec.BarrierStart < rec.HostStart || rec.HostEnd < rec.BarrierStart {
				t.Fatalf("quantum %d: barrier span [%v, %v] outside quantum [%v, %v]",
					i, rec.BarrierStart, rec.HostEnd, rec.HostStart, rec.HostEnd)
			}
			if i > 0 && rec.HostStart < log.recs[i-1].HostEnd {
				t.Fatalf("quantum %d starts at %v before quantum %d ended at %v",
					i, rec.HostStart, i-1, log.recs[i-1].HostEnd)
			}
			barrier += rec.HostEnd.Sub(rec.BarrierStart)
		}
		if res.Stats.HostBarrier != barrier {
			t.Fatalf("Stats.HostBarrier = %v, sum of record spans = %v", res.Stats.HostBarrier, barrier)
		}
		// The slowest rank runs nodes phases of 60µs; every earlier finisher
		// must not shorten the run.
		if min := simtime.Guest(nodes * 60 * simtime.Microsecond); res.GuestTime < min {
			t.Fatalf("guest time %v shorter than the slowest rank's compute %v", res.GuestTime, min)
		}
		for rank, m := range res.Metrics {
			if m["rounds"] != float64(rank+1) {
				t.Fatalf("rank %d reported rounds=%v, want %d", rank, m["rounds"], rank+1)
			}
		}
	}
}
