package cluster

import (
	"reflect"
	"sort"
	"testing"

	"clustersim/internal/guest"
	"clustersim/internal/obs"
	"clustersim/internal/simtime"
	"clustersim/internal/workloads"
)

// computeChain: back-to-back computes of known, rank-specific lengths.
func computeChain() workloads.Workload {
	return workloads.Workload{Name: "test.compute-chain", New: func(rank, _ int) guest.Program {
		return func(p *guest.Proc) error {
			for i := 0; i < chainOps; i++ {
				p.Compute(chainDurs[rank])
			}
			return nil
		}
	}}
}

const chainOps = 20

var chainDurs = []simtime.Duration{5 * simtime.Microsecond, 7300 * simtime.Nanosecond, 11900 * simtime.Nanosecond}

// TestQuietPassEngages: the pass must engage where it should and stand down
// where it must.
func TestQuietPassEngages(t *testing.T) {
	// One long compute per rank: everything but the first quantum (workload
	// start) and the last (completion) is quiet.
	r := named("silent-4").got
	if len(r.quiet)*100 < 95*r.res.Stats.Quanta {
		t.Errorf("silent: %d of %d quanta quiet, want >= 95%%", len(r.quiet), r.res.Stats.Quanta)
	}

	// Back-to-back computes with known lengths: a quantum (start, limit] is
	// stepped iff an op of some rank completes in it — including exactly at
	// the limit (rank 0's 5µs ops end on quantum boundaries) — or it is the
	// first one, where the workloads start. Every other quantum is quiet.
	r = named("compute-chain-3").got
	stepped := map[int]bool{0: true}
	for _, d := range chainDurs {
		for i := 1; i <= chainOps; i++ {
			stepped[int((simtime.Duration(i)*d+simtime.Microsecond-1)/simtime.Microsecond)-1] = true
		}
	}
	var want []int
	for qi := 0; qi < r.res.Stats.Quanta; qi++ {
		if !stepped[qi] {
			want = append(want, qi)
		}
	}
	if !reflect.DeepEqual(r.quiet, want) {
		t.Errorf("compute-chain: quiet quanta\n got  %v\n want %v", r.quiet, want)
	}

	// With traffic: no quantum in which a frame was routed (every frame is
	// routed in the quantum it was sent in) or a node finished is quiet, and
	// the pass still covers the compute phases.
	if r = named("phases-adaptive-4").stream(); len(r.quiet) == 0 {
		t.Errorf("phases: no quiet quanta")
	}
	done := map[int]bool{}
	for _, ph := range r.phases {
		if ph.ph == obs.PhaseDone {
			done[ph.qi] = true
		}
	}
	for _, qi := range r.quiet {
		if r.rec.Quanta[qi].Packets != 0 || done[qi] {
			t.Errorf("phases: quantum %d routed %d packets or saw a node finish, but ran quiet", qi, r.rec.Quanta[qi].Packets)
		}
	}
}

// TestSparseQuantaEngage: on the paper-scale geometry the per-node skip must
// carry the stepped quanta — nearly all of their node-quanta fast-forwarded —
// and stand down wherever a node or a tight partition can act.
func TestSparseQuantaEngage(t *testing.T) {
	const nodes, rack = 64, 4 // the tight partition is nodes 0..3
	r := named("mixed-wan-64").stream()
	stepped := r.res.Stats.Quanta - len(r.quiet)
	partial := len(r.skipped) - nodes*len(r.quiet)
	if partial*100 < 90*nodes*stepped {
		t.Errorf("%d of the %d node-quanta of stepped quanta skipped, want >= 90%%",
			partial, nodes*stepped)
	}

	// What the probe saw of each node-quantum, of each sender, and of each
	// queued arrival.
	phases := map[nodeQuantum][]phaseHook{}
	for _, ph := range r.phases {
		k := nodeQuantum{ph.qi, ph.node}
		phases[k] = append(phases[k], ph)
	}
	sent := map[nodeQuantum]bool{}
	type queued struct {
		at     simtime.Guest
		routed int // the quantum whose barrier queued it
	}
	arrivals := make([][]queued, nodes)
	doneIn := make([]int, nodes) // the quantum each node finished in
	for _, tp := range r.pkts {
		sent[nodeQuantum{tp.qi, tp.rec.Src}] = true
		if !tp.rec.Dropped {
			arrivals[tp.rec.Dst] = append(arrivals[tp.rec.Dst], queued{tp.rec.Arrival, tp.qi})
		}
	}
	for _, as := range arrivals {
		sort.Slice(as, func(i, j int) bool { return as[i].at < as[j].at })
	}
	for _, ph := range r.phases {
		if ph.ph == obs.PhaseDone {
			doneIn[ph.node] = ph.qi
		}
	}
	rackSkips := map[int]int{}
	for _, k := range r.skipped {
		limit := r.rec.Quanta[k.qi].Start.Add(r.rec.Quanta[k.qi].Q)
		phs := phases[k]
		if len(phs) != 1 || phs[0].ph == obs.PhaseDone || phs[0].g1 != limit {
			t.Fatalf("skipped node %d did not spend quantum %d in one segment to the limit %v: %+v",
				k.node, k.qi, limit, phs)
		}
		if sent[k] {
			t.Fatalf("node %d was skipped in quantum %d, in which it sent", k.node, k.qi)
		}
		// A node blocked in Recv acts at its first queued arrival (a
		// finished one idles whatever its queue holds).
		if phs[0].ph == obs.PhaseIdle && k.qi <= doneIn[k.node] {
			as := arrivals[k.node]
			for j := sort.Search(len(as), func(j int) bool { return as[j].at >= phs[0].g0 }); j < len(as) && as[j].at <= limit; j++ {
				if as[j].routed < k.qi {
					t.Fatalf("node %d was skipped in quantum %d with an arrival queued at %v <= limit %v",
						k.node, k.qi, as[j].at, limit)
				}
			}
		}
		if k.node < rack {
			rackSkips[k.qi]++
		}
	}
	for qi, n := range rackSkips {
		if n != rack {
			t.Errorf("quantum %d skipped %d of the tight partition's %d members", qi, n, rack)
		}
	}
}

// TestQuietStretchEngages: at Q = 1µs a silent run's quiet quanta must run ten
// to a pass, one pass per jitter window — but for the windows its first and
// last op cut short — and the summary must still count them one by one.
func TestQuietStretchEngages(t *testing.T) {
	d := named("silent-1ms-4")
	report(t, d.summary)
	r, inTens := d.got, 0
	for _, k := range r.stretches {
		if k == 10 {
			inTens += k
		}
	}
	if len(r.quiet) == 0 || inTens*10 < 9*len(r.quiet) {
		t.Errorf("%d of %d quiet quanta ran in stretches of 10, want >= 9 in 10", inTens, len(r.quiet))
	}
}
