package nic

// Reliable delivery (fault mode only). When the fault configuration
// enables it, the NIC layers a lightweight ARQ protocol over the two
// traffic classes that carry protocol state and therefore cannot
// tolerate loss:
//
//   - Deliberate-update DMA chunks and kernel ring writes travel as
//     RelData with a per-(src,dst) sequence number. The receiver
//     delivers strictly in order, acknowledges cumulatively (an ACK's
//     Seq is the next expected number), and reports gaps with a NACK
//     carrying the same value (go-back-N). The sender retains unacked
//     payload copies and retransmits on NACK or on a retransmission
//     timeout with capped exponential backoff; exhausting the retry
//     budget raises a structured machine check — the model's analogue
//     of a fatal, unrecoverable network error.
//
//   - Automatic-update packets carry a detection-only RelTagged header:
//     a per-(flow, destination page) counter that lets the receiver
//     observe drops as sequence gaps (obs.CtrAUSeqGaps) without
//     retransmission, since AU semantics are "last store wins" and the
//     paper's user-level protocols tolerate loss end-to-end.
//
// ACK and NACK control packets are themselves unreliable: a lost ACK is
// recovered by the next ACK or by a (harmless) duplicate retransmission
// that the receiver discards and re-acknowledges.
//
// None of this state exists outside fault mode (rel == nil): the
// zero-fault datapath is bit-identical to the base protocol, and every
// method on relState is nil-safe.

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
)

// pageKey identifies a per-page automatic-update tag stream: the peer
// coordinate (destination when sending, source when receiving) and the
// destination page.
type pageKey struct {
	peer packet.Coord
	page phys.PageNum
}

// retained is an unacknowledged RelData packet's sender-side copy,
// sufficient to rebuild a retransmission.
type retained struct {
	seq       uint32
	dstAddr   phys.PAddr
	kind      packet.Kind
	interrupt bool
	payload   []byte
}

// relState is one NIC's reliable-delivery state: sender flows keyed by
// destination, receiver state keyed by source, and the detection-only
// per-page AU tag counters.
type relState struct {
	n          *NIC
	flows      map[packet.Coord]*relFlow
	rcv        map[packet.Coord]*relRecv
	pageSeq    map[pageKey]uint32 // sender: last AU tag assigned
	pageExpect map[pageKey]uint32 // receiver: last AU tag seen in order
	freeRTO    *rtoEvent
	freeAck    *ackEvent
	freeBuf    [][]byte // recycled retained-payload buffers
}

func newRelState(n *NIC) *relState {
	return &relState{
		n:          n,
		flows:      make(map[packet.Coord]*relFlow),
		rcv:        make(map[packet.Coord]*relRecv),
		pageSeq:    make(map[pageKey]uint32),
		pageExpect: make(map[pageKey]uint32),
	}
}

// reset clears all protocol state; nil-safe. The caller resets the
// engine too, which drops pending timer events; disarming every flow
// additionally makes any straggler fire a guarded no-op.
func (rs *relState) reset() {
	if rs == nil {
		return
	}
	for _, f := range rs.flows {
		f.armed = false
	}
	for _, rc := range rs.rcv {
		rc.ackArmed = false
	}
	clear(rs.flows)
	clear(rs.rcv)
	clear(rs.pageSeq)
	clear(rs.pageExpect)
	rs.freeBuf = rs.freeBuf[:0]
}

// quarantine fast-fails the flow to one declared-dead peer: retained
// payloads return to the buffer pool, the pending RTO timer is
// disarmed (the generation bump makes an already-scheduled fire a
// no-op), and any delayed ACK toward the peer is cancelled. The flow
// object stays in the map so a straggling ACK from before the
// declaration is still absorbed harmlessly. Nil-safe.
func (rs *relState) quarantine(dst packet.Coord) {
	if rs == nil {
		return
	}
	if f := rs.flows[dst]; f != nil {
		f.release()
	}
	if rc := rs.rcv[dst]; rc != nil {
		rc.ackArmed = false
		rc.gen++
	}
}

// quarantineAll is SetDead's half of the same cleanup: a crashed node
// frees every retained payload and disarms every pending RTO and
// delayed-ACK timer, so nothing keeps firing into the bit-bucket.
// Nil-safe.
func (rs *relState) quarantineAll() {
	if rs == nil {
		return
	}
	for _, f := range rs.flows {
		f.release()
	}
	for _, rc := range rs.rcv {
		rc.ackArmed = false
		rc.gen++
	}
}

// release frees a flow's retained payloads and disarms its timer.
func (f *relFlow) release() {
	for i := range f.unacked {
		f.n.rel.putBuf(f.unacked[i].payload)
		f.unacked[i] = retained{}
	}
	f.unacked = f.unacked[:0]
	f.armed = false
	f.gen++
	f.retries = 0
}

// idle reports whether no flow is awaiting an acknowledgement;
// nil-safe (no reliable layer is trivially idle).
func (rs *relState) idle() bool {
	if rs == nil {
		return true
	}
	for _, f := range rs.flows {
		if len(f.unacked) > 0 {
			return false
		}
	}
	return true
}

func (rs *relState) getBuf() []byte {
	if n := len(rs.freeBuf); n > 0 {
		b := rs.freeBuf[n-1]
		rs.freeBuf = rs.freeBuf[:n-1]
		return b[:0]
	}
	return nil
}

func (rs *relState) putBuf(b []byte) { rs.freeBuf = append(rs.freeBuf, b) }

// tagOut assigns the reliability header to an outgoing packet; nil-safe
// (zero-fault packets stay RelNone). Data-bearing protocol traffic
// (deliberate update, kernel rings) becomes RelData and is retained for
// retransmission; automatic update gets a detection-only RelTagged tag.
func (rs *relState) tagOut(p *packet.Packet, kind obs.SpanKind, dstNode int) {
	if rs == nil {
		return
	}
	if kind == obs.SpanDeliberate || kind == obs.SpanKernelRing {
		f := rs.flow(p.Dst, dstNode)
		p.Rel = packet.RelData
		p.Seq = f.nextSeq
		f.nextSeq++
		buf := append(rs.getBuf(), p.Payload...)
		f.unacked = append(f.unacked, retained{
			seq: p.Seq, dstAddr: p.DstAddr, kind: p.Kind,
			interrupt: p.Interrupt, payload: buf,
		})
		if !f.armed {
			f.arm()
		}
		return
	}
	key := pageKey{p.Dst, p.DstAddr.Page()}
	seq := rs.pageSeq[key] + 1
	rs.pageSeq[key] = seq
	p.Rel = packet.RelTagged
	p.Seq = seq
}

func (rs *relState) flow(dst packet.Coord, dstNode int) *relFlow {
	f := rs.flows[dst]
	if f == nil {
		f = &relFlow{
			n: rs.n, dst: dst, dstNode: dstNode, nextSeq: 1,
			rto: rs.n.inj.Config().AckTimeoutOrDefault(),
		}
		rs.flows[dst] = f
	}
	return f
}

func (rs *relState) recvFor(src packet.Coord) *relRecv {
	rc := rs.rcv[src]
	if rc == nil {
		rc = &relRecv{n: rs.n, src: src, expect: 1}
		rs.rcv[src] = rc
	}
	return rc
}

// onRecv applies the reliability discipline to an arriving packet that
// has already passed the destination and CRC checks. It returns true
// when the packet should continue to the normal deposit path; control
// packets and out-of-discipline data packets are consumed here (FIFO
// space released, pipeline resumed).
func (rs *relState) onRecv(q queuedPacket) bool {
	n := rs.n
	p := q.pkt
	switch p.Rel {
	case packet.RelAck:
		rs.onAck(p.Src, p.Seq)
		n.finishControl(q)
		return false
	case packet.RelNack:
		rs.onNack(p.Src, p.Seq)
		n.finishControl(q)
		return false
	case packet.RelData:
		rc := rs.recvFor(p.Src)
		switch {
		case p.Seq < rc.expect:
			// Duplicate (a retransmission raced the ACK). Discard and
			// re-acknowledge so the sender makes progress.
			n.stats.RelDupDrops++
			n.scope.Inc(obs.CtrRelDups)
			rc.bumpAck()
			n.finishDeposit(q, false)
			return false
		case p.Seq > rc.expect:
			// Gap: something before this packet was lost. Report it once
			// per expected value and discard (go-back-N redelivers).
			n.stats.RelGapDrops++
			rc.nack()
			n.finishDeposit(q, false)
			return false
		}
		rc.expect++
		rc.lastNack = 0
		rc.sinceAck++
		rc.bumpAck()
		return true
	case packet.RelTagged:
		key := pageKey{p.Src, p.DstAddr.Page()}
		last := rs.pageExpect[key]
		if p.Seq > last+1 {
			gaps := uint64(p.Seq - last - 1)
			n.stats.AUSeqGaps += gaps
			n.scope.Add(obs.CtrAUSeqGaps, gaps)
		}
		if p.Seq > last {
			rs.pageExpect[key] = p.Seq
		}
		return true
	}
	return true
}

// onAck advances the flow to the peer that sent the cumulative ACK.
func (rs *relState) onAck(from packet.Coord, seq uint32) {
	f := rs.flows[from]
	if f == nil {
		return
	}
	if f.popAcked(seq) {
		// Progress: the path is alive; reset the backoff schedule.
		f.retries = 0
		f.rto = rs.n.inj.Config().AckTimeoutOrDefault()
	}
	if len(f.unacked) == 0 {
		f.armed = false
		return
	}
	f.arm() // re-arm from now for the new oldest outstanding packet
}

// onNack processes a gap report: everything below seq is implicitly
// acknowledged, everything from seq on is retransmitted (go-back-N),
// bounded by Outgoing-FIFO headroom — the RTO covers whatever is left.
func (rs *relState) onNack(from packet.Coord, seq uint32) {
	f := rs.flows[from]
	if f == nil {
		return
	}
	n := rs.n
	f.popAcked(seq)
	for i := range f.unacked {
		r := &f.unacked[i]
		wire := packet.HeaderBytes + len(r.payload) + packet.CRCBytes + packet.RelHeaderBytes
		if n.out.bytes+wire > n.cfg.OutThreshold {
			break
		}
		f.retransmit(r)
	}
	if len(f.unacked) > 0 {
		f.arm()
	} else {
		f.armed = false
	}
}

// relFlow is the sender half of one (src,dst) reliable flow.
type relFlow struct {
	n       *NIC
	dst     packet.Coord
	dstNode int
	nextSeq uint32 // next sequence number to assign (first packet is 1)
	unacked []retained
	retries int      // RTO fires since last forward progress
	rto     sim.Time // current retransmission timeout (doubles, capped)
	armed   bool
	gen     uint64 // bumped on every (re)arm; stale timer fires no-op
}

// popAcked releases every retained packet with seq < upTo, returning
// whether anything was released.
func (f *relFlow) popAcked(upTo uint32) bool {
	k := 0
	for k < len(f.unacked) && f.unacked[k].seq < upTo {
		f.n.rel.putBuf(f.unacked[k].payload)
		f.unacked[k] = retained{}
		k++
	}
	if k == 0 {
		return false
	}
	f.unacked = append(f.unacked[:0], f.unacked[k:]...)
	return true
}

func (f *relFlow) arm() {
	rs := f.n.rel
	f.gen++
	f.armed = true
	ev := rs.freeRTO
	if ev == nil {
		ev = &rtoEvent{}
	} else {
		rs.freeRTO = ev.next
	}
	ev.f = f
	ev.gen = f.gen
	f.n.eng.ScheduleAfter(f.rto, ev)
}

// fire is the retransmission timeout: no ACK progress within rto.
func (f *relFlow) fire() {
	n := f.n
	if len(f.unacked) == 0 || n.dead {
		return
	}
	f.retries++
	if f.retries > n.inj.Config().RetryBudgetOrDefault() {
		detail := fmt.Sprintf("flow to node %d %v: %d retransmit timeouts without progress, seq %d unacknowledged",
			f.dstNode, f.dst, f.retries-1, f.unacked[0].seq)
		if n.inj.Config().Survivable {
			// Survivable mode: the peer is declared dead instead of the
			// run. The declaration quarantines this flow (freeing the
			// retained payloads whose ACKs will never come) and hands the
			// kernel its membership event.
			n.declarePeerDown(f.dstNode, f.dst, detail)
			return
		}
		n.eng.Fail(&fault.MachineCheck{
			Node: int(n.node), Kind: fault.CheckRetryBudget, At: n.eng.Now(),
			Detail: detail,
		})
		return
	}
	// Retransmit the oldest outstanding packet if the FIFO has headroom
	// (if not, the queue is draining and a later fire retries).
	r := &f.unacked[0]
	wire := packet.HeaderBytes + len(r.payload) + packet.CRCBytes + packet.RelHeaderBytes
	if n.out.bytes+wire <= n.cfg.OutThreshold {
		f.retransmit(r)
	}
	// Exponential backoff, capped.
	cap := n.inj.Config().AckTimeoutOrDefault() * fault.MaxBackoff
	if f.rto < cap {
		f.rto *= 2
		if f.rto > cap {
			f.rto = cap
		}
		n.scope.Inc(obs.CtrRelBackoffs)
	}
	f.arm()
}

// retransmit rebuilds and re-enqueues one retained packet.
func (f *relFlow) retransmit(r *retained) {
	n := f.n
	p := packet.Get()
	p.Src = n.coord
	p.Dst = f.dst
	p.DstAddr = r.dstAddr
	p.Kind = r.kind
	p.Interrupt = r.interrupt
	p.Rel = packet.RelData
	p.Seq = r.seq
	p.Payload = append(p.Payload, r.payload...)
	p.Span = n.obs.BeginSpan(int(n.node), f.dstNode, len(r.payload),
		obs.SpanRetransmit, n.eng.Now())
	n.stats.RelRetransmits++
	n.scope.Inc(obs.CtrRelRetransmits)
	n.enqueueOut(p, p.WireSize())
}

// rtoEvent delivers a retransmission timeout; free-listed per NIC, with
// a generation guard so a superseded arm is a no-op.
type rtoEvent struct {
	f    *relFlow
	gen  uint64
	next *rtoEvent
}

func (ev *rtoEvent) Fire() {
	f, gen := ev.f, ev.gen
	rs := f.n.rel
	ev.f = nil
	if rs != nil {
		ev.next = rs.freeRTO
		rs.freeRTO = ev
	}
	if f.armed && gen == f.gen {
		f.armed = false
		f.fire()
	}
}

// relRecv is the receiver half of one (src,dst) reliable flow.
type relRecv struct {
	n        *NIC
	src      packet.Coord
	expect   uint32 // next expected sequence number
	sinceAck uint32 // in-order packets since the last ACK
	lastNack uint32 // expect value of the last NACK sent (0 = none)
	ackArmed bool
	gen      uint64
}

// bumpAck schedules acknowledgement: immediately after AckEvery
// in-order packets, otherwise after a short delay so a burst is covered
// by one cumulative ACK.
func (rc *relRecv) bumpAck() {
	if rc.sinceAck >= fault.AckEvery {
		rc.sendAck()
		return
	}
	if rc.ackArmed {
		return
	}
	rs := rc.n.rel
	rc.ackArmed = true
	rc.gen++
	ev := rs.freeAck
	if ev == nil {
		ev = &ackEvent{}
	} else {
		rs.freeAck = ev.next
	}
	ev.r = rc
	ev.gen = rc.gen
	rc.n.eng.ScheduleAfter(fault.AckDelay, ev)
}

func (rc *relRecv) sendAck() {
	n := rc.n
	rc.sinceAck = 0
	rc.ackArmed = false
	rc.gen++ // invalidate any pending delayed-ack event
	if n.dead {
		return
	}
	p := packet.Get()
	p.Src = n.coord
	p.Dst = rc.src
	p.Rel = packet.RelAck
	p.Seq = rc.expect
	n.stats.RelAcksSent++
	n.scope.Inc(obs.CtrRelAcks)
	n.enqueueOut(p, p.WireSize())
}

// nack reports a sequence gap, at most once per expected value: every
// further out-of-order arrival for the same hole is dropped silently
// until the hole fills (go-back-N redelivers everything after it).
func (rc *relRecv) nack() {
	n := rc.n
	if rc.lastNack == rc.expect || n.dead {
		return
	}
	rc.lastNack = rc.expect
	p := packet.Get()
	p.Src = n.coord
	p.Dst = rc.src
	p.Rel = packet.RelNack
	p.Seq = rc.expect
	n.stats.RelNacksSent++
	n.scope.Inc(obs.CtrRelNacks)
	n.enqueueOut(p, p.WireSize())
}

// ackEvent delivers a delayed cumulative ACK; free-listed per NIC.
type ackEvent struct {
	r    *relRecv
	gen  uint64
	next *ackEvent
}

func (ev *ackEvent) Fire() {
	rc, gen := ev.r, ev.gen
	rs := rc.n.rel
	ev.r = nil
	if rs != nil {
		ev.next = rs.freeAck
		rs.freeAck = ev
	}
	if rc.ackArmed && gen == rc.gen {
		rc.sendAck()
	}
}
