// Package mpi provides the world communicator the benchmark workloads are
// written against, mirroring the paper's use of LAM/MPI: point-to-point
// sends and receives plus the four collectives the workloads call (Barrier,
// Allreduce, Alltoall, Bcast).
//
// The collectives are implemented with the classical algorithms (binomial
// trees, recursive doubling / dissemination, pairwise exchange) over
// the msg layer, so a collective generates the same kind of frame bursts and
// dependence chains as a real MPI library — which is what the adaptive
// synchronization algorithm reacts to. All operations are blocking and must
// be invoked by all ranks of the communicator in the same order.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"clustersim/internal/guest"
	"clustersim/internal/msg"
	"clustersim/internal/simtime"
)

// MaxTag bounds user point-to-point tags to [0, MaxTag): the tags from
// MaxTag up carry collective traffic, so a user message there could be
// matched by a collective's receive.
const MaxTag = 1 << 24

// collTagMod is the size of the collective tag space above MaxTag.
const collTagMod = 1 << 20

// Comm is a communicator spanning all nodes of the cluster.
type Comm struct {
	ep   *msg.Endpoint
	rank int
	size int
	seq  int // per-collective sequence for tag isolation
}

// New creates the world communicator for this rank over a fresh unreliable
// msg endpoint.
func New(p *guest.Proc) *Comm {
	return &Comm{ep: msg.New(p), rank: p.Rank(), size: p.Size()}
}

// NewWithConfig creates the world communicator over an endpoint with
// explicit transport configuration — the entry point for reliable mode.
// All ranks of a cluster must use the same configuration.
func NewWithConfig(p *guest.Proc, cfg msg.Config) *Comm {
	return &Comm{ep: msg.NewWithConfig(p, cfg), rank: p.Rank(), size: p.Size()}
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Proc returns the underlying guest process.
func (c *Comm) Proc() *guest.Proc { return c.ep.Proc() }

// Endpoint returns the underlying message endpoint.
func (c *Comm) Endpoint() *msg.Endpoint { return c.ep }

// Flush blocks until every reliable-mode message this rank sent has been
// acknowledged or abandoned, and returns the first recorded delivery
// failure (wrapping msg.ErrDeliveryFailed) or nil. A no-op returning nil
// on unreliable communicators.
func (c *Comm) Flush() error { return c.ep.Flush() }

// Err returns the communicator's first recorded delivery failure, or nil.
func (c *Comm) Err() error { return c.ep.Err() }

// Drain pumps inbound traffic (acking reliable-mode peers) until the link
// has been quiet for the given guest-time span. Reliable workloads should
// Drain after their last receive so peers' final retransmissions find an
// acker — the transport's TIME_WAIT.
func (c *Comm) Drain(quiet simtime.Duration) { c.ep.Drain(quiet) }

func (c *Comm) checkPeer(peer int) {
	if peer < 0 || peer >= c.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", peer, c.size))
	}
}

// Send transmits a size-only message to (dst, tag).
func (c *Comm) Send(dst, tag, size int) {
	c.checkPeer(dst)
	c.ep.Send(dst, tag, size)
}

// Recv blocks for a message matching (src, tag); either may be msg.Any. It
// returns the message by value, and its Payload is the caller's.
func (c *Comm) Recv(src, tag int) msg.Message {
	if src != msg.Any {
		c.checkPeer(src)
	}
	return c.ep.Recv(src, tag)
}

// Sendrecv exchanges size-only messages with peer, posting the send first
// (sends never block the transport) and then waiting for the inbound side,
// whose message it returns by value.
func (c *Comm) Sendrecv(peer, tag, size int) msg.Message {
	c.checkPeer(peer)
	c.ep.Send(peer, tag, size)
	return c.ep.Recv(peer, tag)
}

// nextTag reserves a fresh collective tag.
func (c *Comm) nextTag() int {
	t := MaxTag + c.seq%collTagMod
	c.seq++
	return t
}

// Barrier executes a dissemination barrier: ceil(log2(size)) rounds; round k
// sends to (rank+2^k) mod size and waits from (rank-2^k) mod size.
func (c *Comm) Barrier() {
	tag := c.nextTag()
	for k := 1; k < c.size; k <<= 1 {
		to := (c.rank + k) % c.size
		from := (c.rank - k + c.size) % c.size
		c.ep.Send(to, tag, 0)
		c.ep.Recv(from, tag)
	}
}

// Bcast broadcasts size bytes from root via a binomial tree. A non-root rank
// returns the message it received from its parent; the root, which receives
// nothing, returns the zero Message.
func (c *Comm) Bcast(root, size int) msg.Message {
	return c.bcast(root, size, nil)
}

// BcastPayload broadcasts actual bytes from root; non-root ranks receive
// them.
func (c *Comm) BcastPayload(root int, payload []byte) []byte {
	m := c.bcast(root, len(payload), payload)
	if c.rank == root {
		return payload
	}
	return m.Payload
}

func (c *Comm) bcast(root, size int, payload []byte) msg.Message {
	c.checkPeer(root)
	tag := c.nextTag()
	// Work in a rotated space where root is rank 0.
	vrank := (c.rank - root + c.size) % c.size
	var got msg.Message
	if vrank != 0 {
		// Receive from the parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % c.size
		got = c.ep.Recv(parent, tag)
		if got.Payload != nil {
			// Adopt the data so it can be forwarded down the tree.
			payload = got.Payload
		}
	}
	// Forward to children: set each bit above the lowest set bit while in
	// range.
	lsb := vrank & (-vrank)
	if vrank == 0 {
		lsb = nextPow2(c.size)
	}
	for k := lsb >> 1; k >= 1; k >>= 1 {
		child := vrank + k
		if child < c.size {
			dst := (child + root) % c.size
			if payload != nil {
				c.ep.SendPayload(dst, tag, payload)
			} else {
				c.ep.Send(dst, tag, size)
			}
		}
	}
	return got
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Allreduce models an allreduce of size bytes via recursive doubling (the
// power-of-two part) with pre/post folding for leftover ranks.
func (c *Comm) Allreduce(size int) {
	c.allreduce(size, nil, nil)
}

// AllreduceSum performs a real element-wise float64 sum allreduce, carrying
// values on the wire. Every rank returns the identical reduced vector. Used
// by tests to prove the collectives are correct under arbitrary timing.
func (c *Comm) AllreduceSum(vals []float64) []float64 {
	acc := make([]float64, len(vals))
	copy(acc, vals)
	c.allreduce(8*len(vals), acc, sumInto)
	return acc
}

func sumInto(acc []float64, other []float64) {
	for i := range acc {
		acc[i] += other[i]
	}
}

func encodeF64(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func decodeF64(b []byte) []float64 {
	vals := make([]float64, len(b)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vals
}

// allreduce runs recursive doubling. When acc is non-nil, payloads carry the
// partial vectors and fold combines them; otherwise messages are size-only.
func (c *Comm) allreduce(size int, acc []float64, fold func(acc, other []float64)) {
	tag := c.nextTag()
	pof2 := 1
	for pof2*2 <= c.size {
		pof2 *= 2
	}
	rem := c.size - pof2

	exchange := func(peer int) {
		if acc != nil {
			c.ep.SendPayload(peer, tag, encodeF64(acc))
			m := c.ep.Recv(peer, tag)
			fold(acc, decodeF64(m.Payload))
		} else {
			c.ep.Send(peer, tag, size)
			c.ep.Recv(peer, tag)
		}
	}
	sendTo := func(peer int) {
		if acc != nil {
			c.ep.SendPayload(peer, tag, encodeF64(acc))
		} else {
			c.ep.Send(peer, tag, size)
		}
	}
	recvFold := func(peer int) {
		m := c.ep.Recv(peer, tag)
		if acc != nil {
			fold(acc, decodeF64(m.Payload))
		}
	}
	recvCopy := func(peer int) {
		m := c.ep.Recv(peer, tag)
		if acc != nil {
			copy(acc, decodeF64(m.Payload))
		}
	}

	// Fold the leftover high ranks into the low power-of-two block.
	if c.rank >= pof2 {
		sendTo(c.rank - pof2)
		recvCopy(c.rank - pof2) // final result comes back at the end
		return
	}
	if c.rank < rem {
		recvFold(c.rank + pof2)
	}
	// Recursive doubling within [0, pof2).
	for mask := 1; mask < pof2; mask <<= 1 {
		exchange(c.rank ^ mask)
	}
	if c.rank < rem {
		sendTo(c.rank + pof2)
	}
}

// Alltoall models an all-to-all exchange of size bytes per pair using the
// pairwise-exchange schedule: size-1 rounds, in round i exchanging with
// (rank XOR i) for power-of-two sizes and (rank+i)/(rank-i) otherwise.
// This is the MPI_alltoall pattern that makes NAS-IS the paper's worst-case
// accuracy benchmark.
func (c *Comm) Alltoall(size int) {
	tag := c.nextTag()
	if c.size == 1 {
		return
	}
	isPow2 := c.size&(c.size-1) == 0
	for i := 1; i < c.size; i++ {
		var sendPeer, recvPeer int
		if isPow2 {
			sendPeer = c.rank ^ i
			recvPeer = sendPeer
		} else {
			sendPeer = (c.rank + i) % c.size
			recvPeer = (c.rank - i + c.size) % c.size
		}
		c.ep.Send(sendPeer, tag, size)
		c.ep.Recv(recvPeer, tag)
	}
}
