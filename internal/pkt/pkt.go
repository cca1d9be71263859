// Package pkt defines the link-layer packet format exchanged between
// simulated nodes.
//
// The network controller of the paper behaves "like a perfect link-layer
// (MAC-to-MAC) network switch", so the unit of traffic is an Ethernet-style
// frame: source/destination MAC, an EtherType-like protocol tag, and a
// payload bounded by the (jumbo) MTU.
package pkt

import "fmt"

// MAC is a 48-bit link-layer address.
type MAC uint64

// Broadcast is the all-ones broadcast address.
const Broadcast MAC = 0xffffffffffff

// NodeMAC returns the deterministic MAC assigned to a simulated node.
// Node IDs map into a locally-administered OUI so they can never collide
// with Broadcast.
func NodeMAC(node int) MAC {
	return MAC(0x020000000000 | uint64(node)&0xffffffff)
}

// Node recovers the node ID from a MAC produced by NodeMAC, or -1 for
// broadcast/foreign addresses.
func (m MAC) Node() int {
	if m == Broadcast || m>>32 != 0x0200 {
		return -1
	}
	return int(m & 0xffffffff)
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// String formats m as colon-separated hex octets.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(m>>40), byte(m>>32), byte(m>>24), byte(m>>16), byte(m>>8), byte(m))
}

// Proto identifies the payload protocol carried by a frame (the simulator's
// analogue of EtherType).
type Proto uint16

// Protocols understood by the simulated stack.
const (
	ProtoRaw  Proto = 0x0000 // opaque payload (synthetic workloads)
	ProtoMsg  Proto = 0x88b5 // msg-layer data fragment
	ProtoCtrl Proto = 0x88b6 // msg-layer control (rendezvous/ack)
)

// HeaderBytes is the modelled per-frame link-layer overhead (Ethernet header
// + FCS + preamble/IPG rounded to a convenient constant).
const HeaderBytes = 42

// DefaultMTU is the payload capacity of a jumbo Ethernet frame, matching the
// paper's 9000-byte configuration.
const DefaultMTU = 9000

// Header is the message layer's fragment/control header, carried as typed
// fields rather than encoded bytes: its wire bytes are counted in the
// frame's Size, never materialised. The zero Header marks a frame the
// message layer did not build (foreign traffic).
type Header struct {
	ID        uint64 // message id, per sender
	Size, Off int    // message size; the fragment's offset into it
	Tag       int32
	Seq       uint32 // per-destination sequence number
	Frag      int32  // the fragment's payload bytes
	Kind      uint8  // data or control kind; 0 only in the zero Header
}

// Frame is one link-layer packet in flight. It is a value: whoever holds a
// Frame holds its own copy, and only Data's bytes are shared.
type Frame struct {
	Src, Dst MAC
	Proto    Proto
	Msg      Header
	// Size is the payload size in bytes, Msg's wire bytes included; the
	// wire occupancy adds HeaderBytes. Payload content is carried
	// out-of-band in Data (may be nil for modelled-only traffic).
	Size int
	Data []byte
	// ID is a unique, monotonically increasing frame identifier assigned by
	// the sending NIC; used for tracing and duplicate suppression.
	ID uint64
}

// WireBytes returns the number of bytes the frame occupies on the wire.
func (f *Frame) WireBytes() int { return f.Size + HeaderBytes }

// String summarizes the frame for traces and test failures.
func (f *Frame) String() string {
	return fmt.Sprintf("frame#%d %s->%s proto=%#04x size=%dB",
		f.ID, f.Src, f.Dst, uint16(f.Proto), f.Size)
}
