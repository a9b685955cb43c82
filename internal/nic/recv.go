package nic

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
)

// endpoint adapts the NIC to the backplane's processor port. It is a
// separate named type so the mesh-facing methods don't pollute the NIC's
// own method set.
type endpoint NIC

// Accept implements mesh.Endpoint: the incoming flow-control decision.
// Once the Incoming FIFO exceeds its programmable threshold the NIC
// ceases to accept packets from the network; the parked worm holds its
// channels and backpressures the mesh (§4). Crashed nodes never reach
// Accept — the fabric bit-buckets their worms (see mesh.Network.SetDead).
func (e *endpoint) Accept(p *packet.Packet, wire int) bool {
	n := (*NIC)(e)
	if n.in.bytes >= n.cfg.InThreshold {
		return false
	}
	if n.in.bytes+wire > n.cfg.InFIFOBytes {
		// Threshold headroom must cover a maximum-size packet; raise a
		// machine check (a mis-sized model, not a recoverable fault) and
		// refuse the worm, which parks until the failure surfaces.
		n.eng.Fail(&fault.MachineCheck{
			Node: int(n.node), Kind: fault.CheckInFIFOHeadroom, At: n.eng.Now(),
			Detail: fmt.Sprintf("%d+%d > %d bytes", n.in.bytes, wire, n.cfg.InFIFOBytes),
		})
		return false
	}
	n.in.bytes += wire
	n.scope.Set(obs.GaugeInFIFOBytes, int64(n.in.bytes))
	n.scope.Observe(obs.HistInFIFODepth, uint64(n.in.bytes))
	if n.in.bytes > n.stats.MaxInFIFOBytes {
		n.stats.MaxInFIFOBytes = n.in.bytes
	}
	return true
}

// Credit implements mesh.Endpoint: mesh.Network.Release returns the
// wire bytes of Incoming-FIFO occupancy that Accept claimed.
func (e *endpoint) Credit(wire int) {
	n := (*NIC)(e)
	n.in.bytes -= wire
	n.scope.Set(obs.GaugeInFIFOBytes, int64(n.in.bytes))
}

// Deliver implements mesh.Endpoint: the worm has fully streamed into the
// Incoming FIFO.
func (e *endpoint) Deliver(p *packet.Packet, wire int) {
	n := (*NIC)(e)
	if n.dead {
		// The fabric bit-bucketed this worm without claiming FIFO space
		// (see mesh.Network.SetDead), so there is nothing to Credit back.
		n.stats.DropDead++
		n.obs.SpanDropped(p.Span, n.eng.Now())
		n.scope.Inc(obs.CtrDrops)
		packet.Put(p)
		return
	}
	n.obs.SpanDelivered(p.Span, n.eng.Now())
	n.in.q.push(queuedPacket{p, wire})
	n.deposit()
}

// depositEvent fires when the Incoming FIFO head (held in depositQP) has
// traversed the FIFO and is ready for the DMA deposit decision. At most
// one is in flight per NIC (in.depositing).
type depositEvent struct{ n *NIC }

func (ev *depositEvent) Fire() {
	n := ev.n
	n.depositPacket(n.depositQP)
}

// finishEvent fires when the deposit DMA completes. On the Xpress path
// the deposit itself is the NIC mastering the memory bus, performed here;
// on the EISA path the bridge's Xpress write was scheduled by the EISA
// model and has already fired at this timestamp.
type finishEvent struct {
	n      *NIC
	xpress bool
}

func (ev *finishEvent) Fire() {
	n := ev.n
	if ev.xpress {
		p := n.depositQP.pkt
		n.xbus.Write(bus.InitNIC, p.DstAddr, p.Payload)
	}
	n.finishDeposit(n.depositQP, true)
}

// deposit drains the Incoming FIFO head into main memory, one packet at
// a time, using the generation's DMA path.
func (n *NIC) deposit() {
	if n.in.depositing || n.in.q.len() == 0 {
		return
	}
	n.in.depositing = true
	n.depositQP = n.in.q.pop()
	n.eng.ScheduleAfter(n.cfg.InFIFOLatency, &n.depositEv)
}

func (n *NIC) depositPacket(q queuedPacket) {
	p := q.pkt
	// The receiving NIC verifies the absolute mesh coordinates and the
	// CRC before using the packet (§3.1).
	switch {
	case p.Dst != n.coord:
		n.stats.DropWrongDest++
		n.finishDeposit(q, false)
		return
	case p.Corrupt:
		n.stats.DropCRC++
		n.finishDeposit(q, false)
		return
	}
	// Fault mode: ACK/NACK control packets are consumed here, and data
	// packets must pass the sequence discipline before depositing.
	if n.rel != nil && p.Rel != packet.RelNone {
		if !n.rel.onRecv(q) {
			return
		}
	}
	// The page number indexes the NIPT to determine whether the page has
	// been mapped in; unsolicited data is dropped, which is what keeps
	// user-level communication protected.
	if !n.table.At(p.DstAddr.Page()).MappedIn {
		n.stats.DropNotMappedIn++
		n.finishDeposit(q, false)
		return
	}
	var done sim.Time
	if n.cfg.Generation == GenEISAPrototype {
		done = n.eisa.DMAWrite(p.DstAddr, p.Payload)
		n.finishEv.xpress = false
		n.eng.Schedule(done, &n.finishEv)
		return
	}
	// Next generation: the NIC masters the Xpress bus directly.
	done = n.eng.Now() + n.cfg.XpressDepositSetup + sim.PerByte(n.cfg.XpressDepositRate, len(p.Payload))
	n.finishEv.xpress = true
	n.eng.Schedule(done, &n.finishEv)
}

// finishDeposit raises any arrival interrupt, recycles the packet,
// returns the packet's FIFO space through the fabric
// (mesh.Network.Release, which also completes the span and retries the
// parked worm), and resumes the deposit pipeline.
func (n *NIC) finishDeposit(q queuedPacket, delivered bool) {
	n.in.depositing = false
	if delivered {
		n.stats.PacketsIn++
		n.stats.BytesIn += uint64(len(q.pkt.Payload))
		n.scope.Inc(obs.CtrPacketsIn)
		n.scope.Add(obs.CtrBytesIn, uint64(len(q.pkt.Payload)))
		n.scope.Observe(obs.HistPayload, uint64(len(q.pkt.Payload)))
		page := q.pkt.DstAddr.Page()
		entry := n.table.At(page)
		switch {
		case entry.KernelRing:
			n.stats.RecvIRQs++
			n.scope.Inc(obs.CtrIRQs)
			if n.OnIRQ != nil {
				n.OnIRQ(IRQKernelRing, page)
			}
		case entry.RecvInterrupt || q.pkt.Interrupt:
			n.stats.RecvIRQs++
			n.scope.Inc(obs.CtrIRQs)
			if n.OnIRQ != nil {
				n.OnIRQ(IRQRecv, page)
			}
		}
	} else {
		n.scope.Inc(obs.CtrDrops)
	}
	span := q.pkt.Span
	// The payload has been deposited (or dropped); this NIC holds the
	// last reference, so the packet returns to the pool for the next
	// snooped store anywhere in the machine.
	packet.Put(q.pkt)
	// FIFO space freed and span complete: one fabric action, which also
	// lets a parked worm in.
	n.net.Release(n.coord, q.wire, span, !delivered)
	n.deposit()
}

// finishControl consumes a reliable-delivery ACK/NACK: it releases the
// control packet's FIFO space and resumes the pipeline without any of
// the data-path accounting (control traffic is neither delivered data
// nor a drop).
func (n *NIC) finishControl(q queuedPacket) {
	n.in.depositing = false
	span := q.pkt.Span
	packet.Put(q.pkt)
	n.net.Release(n.coord, q.wire, span, false)
	n.deposit()
}
