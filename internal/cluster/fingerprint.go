package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"clustersim/internal/obs"
)

// This file defines the canonical result fingerprint: a deterministic byte
// encoding of everything a Result — and, when the run was recorded, its
// obs.Recorder — asserts about a run, hashed to a short hex string. It is
// the single definition of "two runs produced the same
// outcome" shared by the engine's equivalence tests and the scenario
// regression fleet (cmd/simfleet), which diffs fingerprints against
// committed goldens — so a PR that changes any simulated outcome, anywhere
// in the study surface, trips exactly one cheap check instead of a
// hand-rolled comparison matrix.
//
// Canonicalization rules:
//
//   - Metrics maps are encoded with sorted keys (map order is not part of a
//     run's outcome).
//   - The packet trace is encoded as a sorted multiset: a tight partition
//     interleaves deliveries in host-event order while loose and
//     cross-partition frames route at the barrier in canonical (node, seq)
//     order, so the stream order depends on how the quantum is partitioned
//     and on the reference hook, but the recorded deliveries themselves are
//     identical (TestFastPathMatchesClassicSemantics) and the fingerprint
//     must not depend on their order.
//   - Everything else — times, stats, per-quantum records, policy name — is
//     encoded field by field in declaration order. Integer-only: simtime
//     values print as int64 nanoseconds, float metrics with strconv's
//     shortest round-trip formatting via %v.
//
// The encoding is versioned so a golden mismatch caused by a fingerprint
// schema change is distinguishable from a simulation change.

// FingerprintSchema versions the canonical encoding produced by
// CanonicalResult. Bump it whenever the encoding (not the simulation)
// changes, and regenerate fleet goldens in the same commit.
const FingerprintSchema = "clustersim-fp/1"

// SortPacketsCanonical returns a copy of ps sorted into the canonical
// packet-multiset order: by send time, then source, destination, ideal and
// actual arrival, size, and the fault/straggler classification bits. Two
// engine paths that deliver the same multiset of packets in different
// stream orders canonicalize to the same slice.
func SortPacketsCanonical(ps []obs.PacketRecord) []obs.PacketRecord {
	out := append([]obs.PacketRecord(nil), ps...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.SendGuest != b.SendGuest:
			return a.SendGuest < b.SendGuest
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Dst != b.Dst:
			return a.Dst < b.Dst
		case a.Ideal != b.Ideal:
			return a.Ideal < b.Ideal
		case a.Arrival != b.Arrival:
			return a.Arrival < b.Arrival
		case a.Size != b.Size:
			return a.Size < b.Size
		case a.Dropped != b.Dropped:
			return b.Dropped
		case a.Duplicate != b.Duplicate:
			return b.Duplicate
		case a.Straggler != b.Straggler:
			return b.Straggler
		default:
			return !a.Snapped && b.Snapped
		}
	})
	return out
}

// CanonicalResult encodes res, followed by the records of the run's recorder
// when rec is non-nil, into its canonical byte form. The encoding is
// identical for every execution partitioning that produces the same simulated
// outcome — the reference event-queue walk of the whole cluster included — and
// any divergence in Result, Stats, quantum records, or the packet multiset
// changes it.
func CanonicalResult(res *Result, rec *obs.Recorder) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", FingerprintSchema)
	fmt.Fprintf(&b, "policy %s\n", res.PolicyName)
	fmt.Fprintf(&b, "guest %d host %d\n", int64(res.GuestTime), int64(res.HostTime))
	fmt.Fprintf(&b, "finish")
	for _, f := range res.NodeFinish {
		fmt.Fprintf(&b, " %d", int64(f))
	}
	b.WriteByte('\n')
	for i, m := range res.Metrics {
		keys := make([]string, 0, len(m))
		//simlint:maporder keys are collected then sorted before encoding
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "metrics %d", i)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, m[k])
		}
		b.WriteByte('\n')
	}
	s := res.Stats
	fmt.Fprintf(&b, "stats q=%d pk=%d del=%d ex=%d str=%d snap=%d strd=%d drop=%d dup=%d busy=%d idle=%d barr=%d minq=%d maxq=%d meanq=%d silent=%d ffull=%d fpart=%d fnode=%d pparts=%d\n",
		s.Quanta, s.Packets, s.Deliveries, s.Exact, s.Stragglers, s.QuantumSnaps,
		int64(s.StragglerDelay), s.Dropped, s.Duplicated,
		int64(s.HostBusy), int64(s.HostIdle), int64(s.HostBarrier),
		int64(s.MinQ), int64(s.MaxQ), int64(s.MeanQ), s.SilentQuanta,
		s.FastFullQuanta, s.FastPartialQuanta, s.FastNodeQuanta, s.PartialPartitions)
	if rec == nil {
		return b.Bytes()
	}
	for _, q := range rec.Quanta {
		fmt.Fprintf(&b, "quantum %d %d %d %d %d %d %d %d %t\n",
			q.Index, int64(q.Start), int64(q.Q), q.Packets, q.Stragglers,
			int64(q.HostStart), int64(q.BarrierStart), int64(q.HostEnd), q.FastEligible)
	}
	for _, p := range SortPacketsCanonical(rec.Packets) {
		fmt.Fprintf(&b, "packet %d %d %d %d %d %d %t %t %t %t\n",
			int64(p.SendGuest), p.Src, p.Dst, int64(p.Ideal), int64(p.Arrival), p.Size,
			p.Straggler, p.Snapped, p.Dropped, p.Duplicate)
	}
	return b.Bytes()
}

// Fingerprint returns the canonical result fingerprint: the hex SHA-256 of
// the unrecorded CanonicalResult. Equal fingerprints mean equal outcomes (up
// to hash collision).
func Fingerprint(res *Result) string {
	sum := sha256.Sum256(CanonicalResult(res, nil))
	return hex.EncodeToString(sum[:])
}
