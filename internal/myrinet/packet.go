// Package myrinet models the ParPar data network: a Myrinet SAN connecting
// up to 16 compute nodes through a single crossbar switch.
//
// The model preserves the two properties the paper's flush protocol depends
// on (§3.2):
//
//  1. FIFO delivery — FM uses one precomputed route per (source,
//     destination) pair, and Myrinet links are FIFO, so a control packet
//     sent after data packets arrives after them.
//  2. No hardware broadcast — "broadcasts" (the halt/ready messages) are
//     implemented as a serial loop of point-to-point packets.
//
// Each node's injection port is a serially-reusable transmitter: packets
// from one source leave one at a time at link rate, which both shapes
// bandwidth and guarantees per-source ordering.
package myrinet

import "fmt"

// NodeID identifies a node on the data network (0-based).
type NodeID int

// JobID identifies a parallel job; it tags every data packet so the NIC can
// demultiplex to the right context (and, in the SHARE-style scheme, discard
// packets for descheduled jobs).
type JobID int

// NoJob is the JobID of packets not associated with any job (control
// traffic between the LANais themselves).
const NoJob JobID = -1

// PacketType distinguishes the wire-level packet classes. Control packets
// (Halt, Ready) travel between the Myrinet cards only, are specially
// tagged, are merely counted on receipt, and need neither buffering nor
// credits (paper §3.2).
type PacketType uint8

const (
	// Data carries a fragment of a user message. Consumes one credit.
	Data PacketType = iota
	// Refill is an explicit flow-control credit refill (paper §2.2).
	// Refills bypass the credit check themselves.
	Refill
	// Halt is the network-flush control message: "I will not send any
	// more packets (in this epoch)".
	Halt
	// Ready is the release control message: "I am ready to receive
	// messages for the new context".
	Ready
	// Ack is the go-back-N acknowledgement of the alternative schemes
	// (internal/altsched); PM/SCore's quiescence flush waits on it.
	Ack
	// Nack is used by the alternative schemes to reject a packet
	// (receiver out of space, or wrong job scheduled).
	Nack
)

// String returns the packet type name.
func (t PacketType) String() string {
	switch t {
	case Data:
		return "Data"
	case Refill:
		return "Refill"
	case Halt:
		return "Halt"
	case Ready:
		return "Ready"
	case Ack:
		return "Ack"
	case Nack:
		return "Nack"
	default:
		return fmt.Sprintf("PacketType(%d)", uint8(t))
	}
}

// IsControl reports whether the packet is LANai-to-LANai control traffic
// that is counted rather than buffered and never consumes credits.
func (t PacketType) IsControl() bool {
	return t == Halt || t == Ready || t == Ack || t == Nack
}

// Wire-format constants. FM's packet size is 1560 bytes (paper §4.2); the
// header takes a slice of that, leaving MaxPayload per packet.
const (
	// PacketSize is the fixed FM packet size in bytes, including header.
	PacketSize = 1560
	// HeaderSize covers routing, type, job/rank identification, message
	// id and fragment bookkeeping, and the piggybacked credit count.
	HeaderSize = 24
	// MaxPayload is the user payload capacity of one packet.
	MaxPayload = PacketSize - HeaderSize
	// ControlSize is the wire size of control packets (halt/ready/ack);
	// they carry only a header.
	ControlSize = HeaderSize
)

// Packet is one Myrinet packet. Packets are passed by pointer through the
// simulation and must not be mutated after Send.
type Packet struct {
	Type PacketType
	Src  NodeID
	Dst  NodeID

	// Job and rank bookkeeping for demultiplexing at the receiver.
	Job     JobID
	SrcRank int
	DstRank int

	// Message fragmentation: fragment Frag of NFrags of message MsgID
	// (per sender-receiver pair).
	MsgID  uint64
	Frag   int
	NFrags int

	// PayloadLen is the number of user bytes carried; Payload holds them
	// (may be nil for size-only workloads — the cost model keys off
	// PayloadLen, and tests that verify integrity set Payload).
	PayloadLen int
	Payload    []byte

	// Credits is the piggybacked refill count: how many packets from Dst
	// were consumed by Src since the last refill (paper §2.2). Explicit
	// Refill packets carry it alone.
	Credits int

	// Epoch tags Halt/Ready packets (and, in the SHARE-style scheme,
	// data packets) with the gang-scheduling switch round they belong
	// to, so unsynchronized nodes cannot mix rounds.
	Epoch uint64

	// Seq is a per-(src,dst) sequence number stamped by the network,
	// used by tests to verify FIFO delivery and by the chaos injector to
	// key its per-packet decisions.
	Seq uint64

	// pooled marks a packet as allocated from (and currently owned by)
	// its network's free list. FreePacket recycles only pooled packets,
	// so externally constructed packets — tests build them with struct
	// literals and may hold them past delivery — are never reused, and a
	// double free is a no-op instead of a corruption.
	pooled bool
}

// WireSize returns the packet's size on the wire in bytes.
func (p *Packet) WireSize() int {
	if p.Type.IsControl() || p.Type == Refill {
		return ControlSize
	}
	return HeaderSize + p.PayloadLen
}

// String formats a compact packet description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d job=%d msg=%d frag=%d/%d len=%d cred=%d epoch=%d",
		p.Type, p.Src, p.Dst, p.Job, p.MsgID, p.Frag, p.NFrags, p.PayloadLen, p.Credits, p.Epoch)
}
