// Package packet defines the network packet format of the SHRIMP network
// interface and the node coordinate scheme of the routing backplane.
//
// Per §3.1 of the paper, a packet consists of routing information, the
// absolute mesh coordinates of the intended receiver, a destination
// memory address, the data, and a CRC checksum to detect network errors.
package packet

import (
	"fmt"
	"sync"

	"repro/internal/phys"
)

// NodeID identifies a node by its linear index in the machine.
type NodeID int32

// Coord is an absolute position in the 2-D routing backplane mesh.
type Coord struct {
	X, Y int
}

// CoordOf maps a node id to its mesh coordinates in a mesh width nodes
// wide: node ids run row-major, so the coordinate is computed, never
// stored.
func CoordOf(id NodeID, width int) Coord {
	return Coord{X: int(id) % width, Y: int(id) / width}
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Hops returns the XY-routing hop count between two coordinates.
func (c Coord) Hops(d Coord) int {
	return abs(c.X-d.X) + abs(c.Y-d.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Kind distinguishes the two consumers of arriving data. Ordinary traffic
// is DataWrite; KernelRing marks writes into the boot-time kernel↔kernel
// ring pages so the receiving NIC raises an interrupt on arrival (the
// interrupt-on-arrival command bit of §4.2, pre-set for ring pages).
type Kind uint8

const (
	// DataWrite is an update destined for mapped-in user memory.
	DataWrite Kind = iota
	// KernelRing is an update destined for a kernel message ring page.
	KernelRing
)

// Rel classifies a packet within the reliable-delivery layer that
// fault mode adds on top of the base protocol (internal/fault). The
// zero value RelNone is the seed wire format: no reliability header.
type Rel uint8

const (
	// RelNone: plain fire-and-forget packet (the no-fault format).
	RelNone Rel = iota
	// RelData: reliable data; Seq orders it within its (src,dst) flow,
	// the receiver ACKs cumulatively and the sender retains a copy for
	// retransmit. Deliberate-update and kernel-ring traffic use it.
	RelData
	// RelAck: cumulative acknowledgement; Seq is the receiver's next
	// expected sequence number (everything below it has arrived).
	RelAck
	// RelNack: gap report; Seq is the next expected sequence number and
	// the sender should retransmit from it.
	RelNack
	// RelTagged: detection-only tag for automatic-update traffic; Seq
	// counts packets per (flow, destination page) so the receiver can
	// report drops as sequence gaps without retransmission.
	RelTagged
)

// Packet is one network packet. Payload length is bounded by the page
// size: mappings are per page, so no transfer crosses a page boundary.
type Packet struct {
	Src       Coord      // absolute coordinates of the sender
	Dst       Coord      // absolute coordinates of the intended receiver
	DstAddr   phys.PAddr // destination physical memory address
	Kind      Kind
	Interrupt bool // receiver should interrupt the CPU after depositing
	Payload   []byte

	// Rel and Seq are the reliable-delivery header, present on the wire
	// only in fault mode (Rel != RelNone adds RelHeaderBytes to
	// WireSize). Zero-fault runs never set them, keeping the wire
	// format bit-identical to the base protocol.
	Rel Rel
	Seq uint32

	// Corrupt marks the packet as having suffered a transmission error;
	// fault-injection tests set it, and the receiving NIC treats it as
	// a CRC verification failure (a real packet's trailing CRC would
	// mismatch). It is not part of the wire format.
	Corrupt bool

	// Span is the causal-span reference minted by the sending NIC when
	// metrics are enabled (0 = untracked). It rides the packet so the
	// receiving NIC can complete the span at deposit time. Not part of
	// the wire format.
	Span uint64
}

// Pool recycles packets (and, critically, their payload buffers) through
// one machine's nic→mesh→nic lifecycle: the sending NIC takes a packet
// with Get when it packetizes a snooped store, and the receiving NIC
// returns it with Put once the payload has been deposited into its
// memory. A machine runs on one goroutine, so the free list takes no
// lock. It holds at most poolCap packets; a miss takes one from the
// process-wide shared pool and an overflow returns one there, as does
// Release with the whole list when its machine is dropped. A packet
// built by hand (tests) joins a pool when a NIC consumes it. The zero
// value is ready to use.
type Pool struct {
	free []*Packet
}

// poolCap bounds a Pool's free list. Uncapped, a list grows to its
// machine's peak of packets in flight (625 on E3's 64 B point; 2,588 on
// the §4.1 single-write loop, whose FIFOs fill with 19-byte packets) and
// a machine that is thrown away takes all of them to the garbage
// collector, while the shared pool, fed only by overflows, serves no
// miss. Packets past the cap go back to the shared pool for
// the next machine. DESIGN.md §6 has the census and the measurements.
const poolCap = 256

// shared is the process-wide pool behind every Pool.
var shared = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed packet. Its Payload is empty but may have
// capacity left over from an earlier life; append into it.
func (pl *Pool) Get() *Packet {
	n := len(pl.free) - 1
	if n < 0 {
		return shared.Get().(*Packet)
	}
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	return p
}

// Put recycles p. The caller must hold the only remaining reference; the
// payload's backing array is retained for the packet's next life.
func (pl *Pool) Put(p *Packet) {
	*p = Packet{Payload: p.Payload[:0]}
	if len(pl.free) < poolCap {
		pl.free = append(pl.free, p)
		return
	}
	shared.Put(p)
}

// Release hands every packet on the free list to the process-wide
// shared pool and empties the list. Call it when the list's machine is
// about to be dropped, so the next machine's Gets find those packets
// instead of the garbage collector taking them.
func (pl *Pool) Release() {
	for i, p := range pl.free {
		shared.Put(p)
		pl.free[i] = nil
	}
	pl.free = pl.free[:0]
}

// HeaderBytes is the wire size of the packet header: route/coords (4),
// destination address (4), kind+flags (1), length (2).
const HeaderBytes = 11

// CRCBytes is the wire size of the trailing checksum.
const CRCBytes = 4

// RelHeaderBytes is the wire overhead of the reliable-delivery header
// (kind byte + 32-bit sequence number), paid only when Rel != RelNone.
const RelHeaderBytes = 5

// WireSize returns the total wire size of the packet in bytes.
func (p *Packet) WireSize() int {
	n := HeaderBytes + len(p.Payload) + CRCBytes
	if p.Rel != RelNone {
		n += RelHeaderBytes
	}
	return n
}
