package nic

import (
	"repro/internal/bus"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements VM-mapped commands (§4.2) and the deliberate-
// update DMA engine with its LOCK CMPXCHG initiation protocol (§4.3).
//
// The command address space shadows physical memory one page for one
// page. A read of a command address returns the DMA engine status:
//
//	0                          engine free (a transfer just initiated
//	                           from this address, or any other, is done)
//	remaining<<1 | match       engine busy; match is set iff the read
//	                           address corresponds to the engine's
//	                           current transfer base address
//
// A write of 1..1024 to a command address is a transfer command: "send
// that many words starting at the corresponding data address". It is
// accepted only when the engine is free and the address is mapped for
// deliberate update — which is exactly when the preceding locked read
// cycle returned zero, so a LOCK CMPXCHG with EAX=0 atomically tests
// and starts the engine.
//
// Writes with bit 31 set are control commands (always accepted):
//
//	0x80000000  clear interrupt-on-arrival for the page
//	0x80000001  set interrupt-on-arrival for the page
//	0x80000002  switch the page's outgoing mapping to single-write
//	0x80000003  switch the page's outgoing mapping to blocked-write
const (
	CmdClearRecvInterrupt = 0x8000_0000
	CmdSetRecvInterrupt   = 0x8000_0001
	CmdModeSingleWrite    = 0x8000_0002
	CmdModeBlockedWrite   = 0x8000_0003
)

// MaxDMAWords is the largest deliberate-update transfer: one page
// (protection and mapping are per page, §4.3).
const MaxDMAWords = phys.PageSize / 4

type dmaState struct {
	busy      bool
	base      phys.PAddr // base address of the current transfer
	cur       phys.PAddr // next source address to read
	remaining uint32     // words left
	chunking  bool       // a chunk event is already scheduled

	// In-flight chunk state, valid while chunking: the scratch read
	// buffer is reused across chunks, and the pending fields carry the
	// mapping resolution from the bus read to the packetize event.
	chunkBuf        []byte
	pendingMap      *nipt.OutMapping
	pendingRemote   phys.PAddr
	pendingLen      int
	pendingSrcPage  phys.PageNum
	pendingStart    sim.Time // instant the chunk's bus read was issued
	pendingFinished bool
}

// dmaChunkEvent fires when the chunk's Xpress read completes: the chunk
// (at most MaxPayload bytes, one bus read) goes out as one packet and
// the engine moves to the next chunk. At most one is in flight per NIC
// (dma.chunking).
type dmaChunkEvent struct{ n *NIC }

func (ev *dmaChunkEvent) Fire() {
	n := ev.n
	d := &n.dma
	n.flushMerge()
	n.emit(d.pendingMap, d.pendingRemote, d.chunkBuf[:d.pendingLen], d.pendingSrcPage,
		d.pendingStart, obs.SpanDeliberate)
	d.chunking = false
	if d.pendingFinished {
		d.busy = false
		n.stats.DMATransfers++
		n.Tracer.Record(int(n.node), trace.DMADone, 0, 0)
		return
	}
	d.kick(n)
}

// dataAddr converts a command address to the data address it controls.
func (n *NIC) dataAddr(a phys.PAddr) phys.PAddr {
	return a - n.xbus.Memory().CmdBase()
}

// CmdRead implements bus.CommandTarget.
func (n *NIC) CmdRead(a phys.PAddr) uint32 {
	if !n.dma.busy {
		return 0
	}
	v := n.dma.remaining << 1
	if n.dataAddr(a) == n.dma.base {
		v |= 1
	}
	return v
}

// CmdWrite implements bus.CommandTarget. It reports whether the command
// was accepted; the locked CMPXCHG protocol surfaces rejection to user
// code as a cleared ZF.
func (n *NIC) CmdWrite(a phys.PAddr, v uint32) bool {
	da := n.dataAddr(a)
	page := da.Page()
	entry := n.table.Entry(page)
	switch v {
	case CmdClearRecvInterrupt:
		entry.RecvInterrupt = false
		return true
	case CmdSetRecvInterrupt:
		entry.RecvInterrupt = true
		return true
	case CmdModeSingleWrite, CmdModeBlockedWrite:
		m := n.table.Out(page, da.Offset())
		if !m.Mode.Automatic() {
			return false
		}
		if v == CmdModeSingleWrite {
			n.flushMerge()
			m.Mode = nipt.SingleWriteAU
		} else {
			m.Mode = nipt.BlockedWriteAU
		}
		return true
	}
	// Transfer command: v is a word count.
	if n.dma.busy {
		n.stats.DMARejected++
		n.scope.Inc(obs.CtrDMARejected)
		return false
	}
	if v == 0 || v > MaxDMAWords {
		return false
	}
	if int(da.Offset())+int(v)*4 > phys.PageSize {
		// Each command can transfer at most one page; transfers that
		// span a page boundary must be broken up by software (§4.3).
		return false
	}
	if m := n.table.Out(page, da.Offset()); m.Mode != nipt.DeliberateUpdate {
		return false
	}
	n.dma.busy = true
	n.dma.base = da
	n.dma.cur = da
	n.dma.remaining = v
	n.scope.Inc(obs.CtrDMACommands)
	n.Tracer.Record(int(n.node), trace.DMAStart, uint64(v), uint64(da))
	n.dma.kick(n)
	return true
}

// kick advances the DMA engine: read the next chunk from main memory
// over the Xpress bus (the outgoing datapath captures it "in a manner
// equivalent to automatic-update writes", §4.3) and packetize it. The
// engine pauses while the Outgoing FIFO is above threshold and is
// re-kicked as the FIFO drains.
func (d *dmaState) kick(n *NIC) {
	if !d.busy || d.chunking {
		return
	}
	if n.out.bytes > n.cfg.OutThreshold {
		return // injectorFree will re-kick
	}
	m, remote, ok := n.table.Resolve(d.cur)
	if !ok || m.Mode != nipt.DeliberateUpdate {
		// The mapping disappeared mid-transfer (e.g. the §4.4
		// invalidation protocol tore it down); abandon the rest.
		d.busy = false
		return
	}
	chunk := int(d.remaining) * 4
	if chunk > n.cfg.MaxPayload {
		chunk = n.cfg.MaxPayload
	}
	d.chunking = true
	if cap(d.chunkBuf) < chunk {
		d.chunkBuf = make([]byte, chunk)
	}
	n.scope.Inc(obs.CtrDMAChunks)
	d.pendingStart = n.eng.Now()
	done := n.xbus.ReadInto(bus.InitNIC, d.cur, d.chunkBuf[:chunk])
	d.pendingMap = m
	d.pendingRemote = remote
	d.pendingLen = chunk
	d.pendingSrcPage = d.cur.Page()
	d.cur += phys.PAddr(chunk)
	d.remaining -= uint32(chunk) / 4
	d.pendingFinished = d.remaining == 0
	n.eng.ScheduleDom(n.dom, done, &n.chunkEv)
}
