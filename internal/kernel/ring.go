package kernel

import (
	"fmt"
	"hash/crc32"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Kernel↔kernel message rings.
//
// Each ordered pair of nodes (A→B) shares one ring: a physical page on B
// ("inbox") that a physical page on A ("outbox") maps onto with a
// blocked-write automatic-update mapping and interrupt-on-arrival. A's
// kernel writes records into its outbox through the memory bus — the NIC
// snoops and propagates them like any other mapped store — and B's
// kernel drains its inbox when the arrival interrupt fires.
//
// Record format (all words little-endian, layout per 4 KB ring page):
//
//	+0  seq     written LAST: per-pair in-order delivery means the
//	            whole record is resident once seq matches
//	+4  len     payload byte count, or wrapMark to restart at offset 0
//	+8  crc     (fault mode only) CRC-32C of the payload
//	+8/+12 payload padded to an 8-byte boundary
//
// Producers stop writing when the unacknowledged window would overflow
// the ring; consumers return cumulative-consumed credits on their own
// reverse ring. Credit records bypass the window check (they are tiny
// and self-limiting), so the protocol cannot deadlock.
//
// In fault mode (SetRingCRC) every record additionally carries a
// payload checksum as an end-to-end integrity check on top of the
// NIC-level reliable delivery; a mismatch is unrecoverable corruption
// of the control plane and raises a machine check.

const (
	ringHeaderBytes = 8
	wrapMark        = 0xffff_ffff
	// maxRecordBytes bounds one RPC record (header + payload).
	maxRecordBytes = 512
	// creditEvery: send a credit once this many bytes have been consumed
	// since the last one.
	creditEvery = 1024
)

var ringCRCTable = crc32.MakeTable(crc32.Castagnoli)

// SetRingCRC toggles the fault-mode record checksum. The machine
// constructor sets it at boot on every node or none: both ends of a
// ring must agree on the record layout.
func (k *Kernel) SetRingCRC(on bool) { k.ringCRC = on }

// ringHeader is the per-record header size under the current layout.
func (k *Kernel) ringHeader() uint32 {
	if k.ringCRC {
		return ringHeaderBytes + 4
	}
	return ringHeaderBytes
}

// Ring layout. On an n-node machine each node reserves RingPages(n)
// boot frames: its outbox toward peer b is frame peerIndex(a, b) and its
// inbox from b is frame n-1+peerIndex(a, b). General allocation starts
// above them. Frame numbers are a pure function of the pair, so no ring
// costs anything until its pair first talks: when either kernel of a
// pair first sends to the other or drains its inbox (peerOf), it builds
// its Go-side ring state for the peer and installs the pair's NIPT
// entries on both nodes (installRing).

// RingPages returns the number of boot frames each node of an n-node
// machine reserves for kernel rings.
func RingPages(nodes int) int { return 2 * (nodes - 1) }

// peerIndex numbers a's peers 0..n-2 in node order, skipping a itself.
func peerIndex(a, b packet.NodeID) int {
	if b < a {
		return int(b)
	}
	return int(b) - 1
}

// outbox returns node a's outbox frame toward b.
func outbox(a, b packet.NodeID) phys.PageNum { return phys.PageNum(peerIndex(a, b)) }

// inbox returns node a's inbox frame from b on an n-node machine.
func inbox(n int, a, b packet.NodeID) phys.PageNum { return phys.PageNum(n - 1 + peerIndex(a, b)) }

// inboxOwner inverts inbox: the peer whose ring lands in frame f, or
// false when f is not one of this node's inboxes.
func (k *Kernel) inboxOwner(f phys.PageNum) (packet.NodeID, bool) {
	i := int(f) - (k.nodes - 1)
	if i < 0 || i >= k.nodes-1 {
		return 0, false
	}
	if b := packet.NodeID(i); b < k.id {
		return b, true
	}
	return packet.NodeID(i + 1), true
}

// Boot is the firmware step for this node: it hands the page allocator
// the frames above the ring pages. The machine constructor calls it on
// every node. Unless a test set eagerRings, it installs no ring
// entries; installRing does, at a pair's first contact.
func (k *Kernel) Boot() {
	ring := RingPages(k.nodes)
	if ring >= k.mem.Pages() {
		panic(fmt.Sprintf("kernel%d: %d pages cannot hold %d kernel ring pages", k.id, k.mem.Pages(), ring))
	}
	if eagerRings {
		for b := packet.NodeID(0); int(b) < k.nodes; b++ {
			if b != k.id {
				installRingSide(k.nipts[k.id], k.nodes, k.id, b)
			}
		}
	}
	k.free, k.fresh = k.free[:0], phys.PageNum(ring)
}

// eagerRings makes Boot install this node's side of every ring, as boot
// did before rings were installed at first contact. Only tests set it
// (export_test.go), to run the eager layout as the reference that
// first-contact install must match on every harness.
var eagerRings bool

// installRing installs the NIPT entries of the two rings between this
// node and b on both nodes, the only mappings not established through
// map() (the hardware-install substitute for firmware). peerOf calls it
// before this kernel writes its first record to b or drains b's ring, so
// every reader of a ring entry finds it installed: the sender's snoop
// filter and packet tagging, the receiver's MappedIn check and arrival
// IRQ. A pair already installed, from either end, is left alone.
func (k *Kernel) installRing(b packet.NodeID) {
	if k.nipts[k.id].At(outbox(k.id, b)).KernelRing {
		return
	}
	installRingSide(k.nipts[k.id], k.nodes, k.id, b)
	installRingSide(k.nipts[b], k.nodes, b, k.id)
}

// installRingSide installs node a's side of its rings with b in a's
// NIPT t: the outbox toward b mapped out to b's inbox from a,
// blocked-write (ring records merge nicely), and the inbox from b
// mapped in. Both are tagged as kernel rings, so arrivals raise the
// kernel IRQ.
func installRingSide(t *nipt.Table, n int, a, b packet.NodeID) {
	out := outbox(a, b)
	t.MapOut(out, nipt.OutMapping{Mode: nipt.BlockedWriteAU, DstNode: b, DstPage: inbox(n, b, a)})
	t.Entry(out).KernelRing = true
	in := t.Entry(inbox(n, a, b))
	in.MappedIn = true
	in.KernelRing = true
}

type peer struct {
	node packet.NodeID

	outFrame phys.PageNum
	wcursor  uint32
	wseq     uint32
	written  uint64
	acked    uint64
	backlog  [][]byte

	inFrame    phys.PageNum
	rcursor    uint32
	rseq       uint32
	consumed   uint64
	lastCredit uint64
}

// peerOf returns the ring state for node, building it, and installing
// the pair's rings, the first time this kernel sends to node or drains
// its inbox.
func (k *Kernel) peerOf(node packet.NodeID) *peer {
	if p := k.peers[node]; p != nil {
		return p
	}
	if node == k.id || node < 0 || int(node) >= k.nodes {
		panic(fmt.Sprintf("kernel%d: no ring to node %d", k.id, node))
	}
	k.installRing(node)
	p := &peer{node: node, outFrame: outbox(k.id, node), inFrame: inbox(k.nodes, k.id, node), wseq: 1, rseq: 1}
	k.peers[node] = p
	return p
}

// Peers returns, in ascending order, the nodes this kernel has built
// ring state for: those it has sent to or heard from.
func (k *Kernel) Peers() []packet.NodeID { return sortedKeys(k.peers) }

// ringSend queues one record for the peer, respecting the credit window
// unless bypass is set (credit records only).
func (k *Kernel) ringSend(p *peer, payload []byte, bypass bool) {
	if len(payload)+int(k.ringHeader()) > maxRecordBytes {
		panic(fmt.Sprintf("kernel%d: ring record too large (%d bytes)", k.id, len(payload)))
	}
	// Records to a declared-dead peer go nowhere: its inbox stopped
	// existing when it crashed, and writing them would only re-arm the
	// reliable layer we just quarantined. Callers that need an answer
	// fast-fail before reaching here (deadRequest).
	if k.down[p.node] != nil {
		return
	}
	if !bypass && len(p.backlog) > 0 {
		p.backlog = append(p.backlog, payload)
		return
	}
	if !bypass && !k.ringFits(p, payload) {
		p.backlog = append(p.backlog, payload)
		return
	}
	k.ringWrite(p, payload)
}

// recordBytes pads records to 8-byte multiples so the write cursor is
// always 8-aligned. The CRC layout's 12-byte header keeps the padded
// total a multiple of 8 too. The 8-byte wrap marker does not fit after
// every record: ringWraps keeps the last 8 bytes of the page for it.
func (k *Kernel) recordBytes(payload []byte) uint32 {
	return (k.ringHeader() + uint32(len(payload)) + 7) &^ 7
}

// ringWraps reports whether a record of rec bytes must restart at
// offset 0: written at the cursor, it would leave less than the 8 bytes
// a wrap marker takes before the end of the page. A record ending at the
// page's last byte would leave the next wrap marker, and the consumer's
// next read, in the frame after the ring page.
func ringWraps(p *peer, rec uint32) bool {
	return p.wcursor+rec > phys.PageSize-ringHeaderBytes
}

// ringFits reports whether the unacked window leaves room for the record
// (including a possible wrap marker's wasted tail).
func (k *Kernel) ringFits(p *peer, payload []byte) bool {
	rec := k.recordBytes(payload)
	need := uint64(rec)
	if ringWraps(p, rec) {
		need += uint64(phys.PageSize - p.wcursor) // wrap waste
	}
	return p.written-p.acked+need <= phys.PageSize-maxRecordBytes
}

// ringWrite emits the record through the memory bus, payload first and
// sequence word last, so the consumer sees only complete records.
func (k *Kernel) ringWrite(p *peer, payload []byte) {
	rec := k.recordBytes(payload)
	if ringWraps(p, rec) {
		// Wrap record: len=wrapMark, then seq.
		base := p.outFrame.Addr(p.wcursor)
		k.busWrite32(base+4, wrapMark)
		k.busWrite32(base, p.wseq)
		p.written += uint64(phys.PageSize - p.wcursor)
		p.wseq++
		p.wcursor = 0
	}
	base := p.outFrame.Addr(p.wcursor)
	hdr := k.ringHeader()
	if k.ringCRC {
		k.busWrite32(base+8, crc32.Checksum(payload, ringCRCTable))
	}
	for off := uint32(0); off < uint32(len(payload)); off += 4 {
		var w uint32
		for i := uint32(0); i < 4 && off+i < uint32(len(payload)); i++ {
			w |= uint32(payload[off+i]) << (8 * i)
		}
		k.busWrite32(base+phys.PAddr(hdr+off), w)
	}
	k.busWrite32(base+4, uint32(len(payload)))
	k.busWrite32(base, p.wseq)
	p.wseq++
	p.wcursor += rec
	p.written += uint64(rec)
	k.stats.RingRecordsSent++
}

// ringAck applies a cumulative credit from the peer and drains any
// backlogged records that now fit.
func (k *Kernel) ringAck(p *peer, cumulative uint64) {
	if cumulative > p.acked {
		p.acked = cumulative
	}
	for len(p.backlog) > 0 && k.ringFits(p, p.backlog[0]) {
		rec := p.backlog[0]
		p.backlog = p.backlog[1:]
		k.ringWrite(p, rec)
	}
}

// handleNICIRQ is the NIC interrupt line.
func (k *Kernel) handleNICIRQ(cause nic.IRQCause, page phys.PageNum) {
	switch cause {
	case nic.IRQKernelRing:
		node, ok := k.inboxOwner(page)
		if !ok {
			panic(fmt.Sprintf("kernel%d: ring IRQ for unknown page %d", k.id, page))
		}
		k.drainRing(k.peerOf(node))
	case nic.IRQRecv:
		if k.OnUserRecvIRQ != nil {
			k.OnUserRecvIRQ(page)
		}
	}
}

func (k *Kernel) drainRing(p *peer) {
	for {
		base := p.inFrame.Addr(p.rcursor)
		seq := k.mem.Read32(base)
		if seq != p.rseq {
			break
		}
		length := k.mem.Read32(base + 4)
		if length != wrapMark && (length == 0 || length+k.ringHeader() > maxRecordBytes) {
			// The control plane cannot proceed past a mangled record:
			// raise a machine check and stop draining.
			k.eng.Fail(&fault.MachineCheck{
				Node: int(k.id), Kind: fault.CheckRingCorrupt, At: k.eng.Now(),
				Detail: fmt.Sprintf("ring from node %d: bad length %d at offset %d",
					p.node, length, p.rcursor),
			})
			return
		}
		if length == wrapMark {
			p.consumed += uint64(phys.PageSize - p.rcursor)
			p.rcursor = 0
			p.rseq++
			continue
		}
		payload := k.mem.Read(base+phys.PAddr(k.ringHeader()), int(length))
		if k.ringCRC {
			if got := crc32.Checksum(payload, ringCRCTable); got != k.mem.Read32(base+8) {
				k.eng.Fail(&fault.MachineCheck{
					Node: int(k.id), Kind: fault.CheckRingCorrupt, At: k.eng.Now(),
					Detail: fmt.Sprintf("ring from node %d: payload CRC mismatch at offset %d (seq %d)",
						p.node, p.rcursor, seq),
				})
				return
			}
		}
		rec := k.recordBytes(payload)
		p.rcursor += rec
		p.consumed += uint64(rec)
		p.rseq++
		k.stats.RingRecordsRcvd++
		k.dispatch(p, payload)
	}
	if p.consumed-p.lastCredit >= creditEvery {
		p.lastCredit = p.consumed
		k.sendCredit(p)
	}
}
