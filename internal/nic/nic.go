// Package nic implements the SHRIMP virtual memory-mapped network
// interface — the paper's primary contribution (§4, Figure 4).
//
// The datapath follows Figure 4: the NIC snoops write transactions on
// the Xpress memory bus; the Network Interface Page Table (NIPT) decides
// whether (and how) each snooped write is mapped out; outgoing data is
// packetized and queued in the Outgoing FIFO, which drains into the
// routing backplane through the Network Interface Chip. Arriving packets
// queue in the Incoming FIFO and are DMA-deposited into main memory —
// over the EISA expansion bus on the prototype, or directly over the
// Xpress bus on the next generation — without CPU involvement.
//
// Flow control is the paper's §4 scheme: when the Incoming FIFO exceeds
// its threshold the NIC stops accepting packets from the network
// (backpressuring the wormhole mesh); when the Outgoing FIFO exceeds its
// threshold the CPU is interrupted and waits until it drains. The NIC
// also implements the user-level deliberate-update DMA engine and its
// LOCK CMPXCHG command protocol (§4.3), and the VM-mapped command pages
// (§4.2).
package nic

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Generation selects the incoming deposit path (paper §3, §5.1).
type Generation uint8

const (
	// GenEISAPrototype deposits incoming data over the EISA expansion
	// bus (33 MB/s burst peak — the bandwidth bottleneck).
	GenEISAPrototype Generation = iota
	// GenXpress is the "next implementation": the NIC masters the Xpress
	// memory bus directly (~70 MB/s, much smaller setup cost).
	GenXpress
)

func (g Generation) String() string {
	if g == GenEISAPrototype {
		return "eisa-prototype"
	}
	return "xpress"
}

// Config holds the network interface parameters.
type Config struct {
	Generation Generation

	// Datapath latencies.
	SnoopPacketize sim.Time // snoop + NIPT lookup + packet build
	OutFIFOLatency sim.Time // traversal of the Outgoing FIFO
	InjectSetup    sim.Time // NIC injection overhead per packet
	InFIFOLatency  sim.Time // traversal of the Incoming FIFO

	// FIFO sizing; thresholds are the §4 programmable marks.
	OutFIFOBytes int
	OutThreshold int
	InFIFOBytes  int
	InThreshold  int

	// MaxPayload bounds a packet's payload; blocked-write merging and
	// the deliberate-update DMA engine emit packets up to this size.
	MaxPayload int
	// MergeWindow is the blocked-write programmable time limit: writes
	// farther apart than this close the open packet (§4.1).
	MergeWindow sim.Time

	// Xpress-generation deposit path parameters.
	XpressDepositSetup sim.Time
	XpressDepositRate  int64 // bytes/second
}

// DefaultConfig returns parameters calibrated to the paper's prototype
// (see DESIGN.md §4 and EXPERIMENTS.md for the calibration).
func DefaultConfig() Config {
	return Config{
		Generation:         GenEISAPrototype,
		SnoopPacketize:     150 * sim.Nanosecond,
		OutFIFOLatency:     100 * sim.Nanosecond,
		InjectSetup:        50 * sim.Nanosecond,
		InFIFOLatency:      100 * sim.Nanosecond,
		OutFIFOBytes:       32 * 1024,
		OutThreshold:       24 * 1024,
		InFIFOBytes:        32 * 1024,
		InThreshold:        24 * 1024,
		MaxPayload:         512,
		MergeWindow:        500 * sim.Nanosecond,
		XpressDepositSetup: 80 * sim.Nanosecond,
		XpressDepositRate:  70_000_000,
	}
}

// Stats aggregates NIC activity.
type Stats struct {
	SnoopedWrites    uint64
	PacketsOut       uint64
	KernelPacketsOut uint64 // subset of PacketsOut on kernel ring pages
	PacketsIn        uint64
	BytesOut         uint64
	BytesIn          uint64
	MergedWrites     uint64 // stores absorbed into an open blocked-write packet
	MergedPackets    uint64 // blocked-write packets emitted
	DMATransfers     uint64 // deliberate-update commands completed
	DMARejected      uint64 // CMPXCHG attempts that found the engine busy
	DropNotMappedIn  uint64
	DropWrongDest    uint64
	DropCRC          uint64
	DropDead         uint64 // packets discarded because this node crashed
	OutFullEvents    uint64
	OutStallTime     sim.Time
	RecvIRQs         uint64
	MaxOutFIFOBytes  int
	MaxInFIFOBytes   int

	// Fault-mode accounting (all zero outside fault mode).
	RelRetransmits uint64 // reliable-delivery data retransmissions
	RelAcksSent    uint64 // cumulative ACK control packets sent
	RelNacksSent   uint64 // gap-report NACK control packets sent
	RelDupDrops    uint64 // duplicate reliable data packets discarded
	RelGapDrops    uint64 // reliable data packets discarded past a sequence gap
	AUSeqGaps      uint64 // automatic-update sequence gaps observed
	PeerDowns      uint64 // peers this node's failure detector declared dead
	PeerDownDrops  uint64 // outbound packets suppressed against a dead peer
}

// Drops returns every packet the receive path discarded: misrouted,
// failed CRC, no incoming mapping, arrived at a crashed node, or
// discarded by the reliable layer as a duplicate or past a sequence
// gap. It equals the metrics registry's "drops" counter.
func (s Stats) Drops() uint64 {
	return s.DropWrongDest + s.DropCRC + s.DropNotMappedIn + s.DropDead + s.RelDupDrops + s.RelGapDrops
}

// IRQCause identifies why the NIC interrupted the CPU.
type IRQCause uint8

const (
	// IRQRecv: data arrived for a page with interrupt-on-arrival set.
	IRQRecv IRQCause = iota
	// IRQKernelRing: data arrived on a kernel message ring page.
	IRQKernelRing
)

// NIC is one node's network interface.
type NIC struct {
	eng   *sim.Engine
	cfg   Config
	node  packet.NodeID
	coord packet.Coord
	table *nipt.Table
	xbus  *bus.Xpress
	eisa  *bus.EISA
	net   *mesh.Network
	width int // mesh width: with a node id, it gives the node's coordinate
	// pkts is the machine's packet free list, owned by the backplane.
	pkts *packet.Pool

	// OnIRQ is the interrupt line to the CPU/kernel: cause plus the
	// physical page the interrupt concerns.
	OnIRQ func(cause IRQCause, page phys.PageNum)
	// OnOutFull fires when the Outgoing FIFO crosses its threshold; the
	// node glue freezes the CPU ("the CPU is interrupted and waits").
	OnOutFull func()
	// OnOutDrained fires when the Outgoing FIFO falls back below the
	// threshold.
	OnOutDrained func()

	// obs is the machine-wide metrics registry (spans) and scope this
	// node's counters land in; both nil when metrics are disabled.
	obs   *obs.Registry
	scope *obs.NodeScope

	// inj is the machine-wide fault injector (nil outside fault mode);
	// rel is the reliable-delivery layer state (nil unless the fault
	// config enables it). dead marks a crashed node: the NIC bit-buckets
	// arriving worms so the wormhole mesh cannot deadlock on it.
	inj  *fault.Injector
	rel  *relState
	dead bool

	// Survivable-mode failure detector (nil/zero outside that mode):
	// peers this node has declared dead after reliable-delivery retry-
	// budget exhaustion. downCount != 0 is the only check the emit hot
	// path pays. OnPeerDown is the kernel's membership hook, fired once
	// per declared peer from the declaring node's own event stream.
	downPeers  map[packet.Coord]*fault.PeerDown
	downCount  int
	OnPeerDown func(pd *fault.PeerDown)

	out   outState
	in    inState
	dma   dmaState
	merge mergeState
	stats Stats

	// Pre-allocated event handlers for the datapath pipelines. Each
	// pipeline has at most one event in flight (guarded by its state
	// flag), so a single embedded handler per stage suffices; the
	// packetize stage can overlap and draws from a free list.
	injectEv  injectEvent
	depositEv depositEvent
	finishEv  finishEvent
	chunkEv   dmaChunkEvent
	mergeEv   mergeTimerEvent
	freeEnq   *enqueueEvent
	// depositQP is the Incoming FIFO head currently in the deposit
	// pipeline (valid while in.depositing).
	depositQP queuedPacket
}

// enqueueEvent carries a packetized store through the SnoopPacketize
// latency into the Outgoing FIFO. Several can be in flight (back-to-back
// snooped stores), so they are free-listed per NIC.
type enqueueEvent struct {
	n    *NIC
	p    *packet.Packet
	wire int
	next *enqueueEvent
}

func (ev *enqueueEvent) Fire() {
	n, p, wire := ev.n, ev.p, ev.wire
	ev.p = nil
	ev.next = n.freeEnq
	n.freeEnq = ev
	n.enqueueOut(p, wire)
}

// injectEvent fires when the Outgoing FIFO head has traversed the FIFO
// and the injection setup: the packet enters the backplane.
type injectEvent struct{ n *NIC }

func (ev *injectEvent) Fire() {
	n := ev.n
	head := n.out.q.peek()
	n.obs.SpanInjected(head.pkt.Span, n.eng.Now())
	n.net.Inject(n.coord, head.pkt, head.wire)
}

type queuedPacket struct {
	pkt  *packet.Packet
	wire int
}

// pktQueue is a FIFO of queued packets that recycles its backing array:
// popped slots are compacted away instead of sliding the slice header, so
// a steady-state FIFO allocates nothing.
type pktQueue struct {
	buf  []queuedPacket
	head int
}

func (q *pktQueue) push(qp queuedPacket) { q.buf = append(q.buf, qp) }

func (q *pktQueue) pop() queuedPacket {
	qp := q.buf[q.head]
	q.buf[q.head] = queuedPacket{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return qp
}

func (q *pktQueue) len() int           { return len(q.buf) - q.head }
func (q *pktQueue) peek() queuedPacket { return q.buf[q.head] }

type outState struct {
	q         pktQueue
	bytes     int
	injecting bool
	stalled   bool
	stallFrom sim.Time
}

type inState struct {
	q          pktQueue
	bytes      int
	depositing bool
}

// New builds a network interface and attaches it to the backplane and
// memory bus.
func New(eng *sim.Engine, cfg Config, node packet.NodeID, coord packet.Coord,
	table *nipt.Table, xbus *bus.Xpress, eisa *bus.EISA, net *mesh.Network) *NIC {
	n := &NIC{
		eng: eng, cfg: cfg, node: node, coord: coord,
		table: table, xbus: xbus, eisa: eisa, net: net, width: net.Config().Width,
		pkts: net.Packets(),
	}
	n.injectEv.n = n
	n.depositEv.n = n
	n.finishEv.n = n
	n.chunkEv.n = n
	n.mergeEv.n = n
	if cfg.Generation == GenEISAPrototype && eisa == nil {
		panic("nic: EISA prototype generation requires an EISA bus")
	}
	xbus.AddSnooper(n)
	xbus.SetCommandTarget(n)
	xbus.SetSnoopFilter(n.snoopNeeded)
	net.Attach(coord, (*endpoint)(n))
	net.OnInjectorFree(coord, n.injectorFree)
	return n
}

// SetObs attaches the machine-wide metrics registry; the NIC records
// into its own node's scope and mints causal spans from the registry.
// A nil registry (metrics disabled) detaches.
func (n *NIC) SetObs(reg *obs.Registry) {
	n.obs = reg
	n.scope = reg.Node(int(n.node))
}

// SetFaults attaches the machine-wide fault injector. When the fault
// configuration enables reliable delivery, the NIC also builds its
// retransmission state. A nil injector (fault mode off) detaches both.
func (n *NIC) SetFaults(inj *fault.Injector) {
	n.inj = inj
	n.rel = nil
	if inj.Reliable() {
		n.rel = newRelState(n)
	}
}

// SetDead marks the node as crashed: the NIC stops delivering arriving
// packets (the fabric bit-buckets its worms so the mesh cannot
// deadlock) and sends nothing further. Its own reliable-delivery state
// is quarantined — retained payloads freed, every pending RTO and
// delayed-ACK timer disarmed — so the dead node stops churning the
// event queue. Senders with reliable delivery exhaust their retry
// budget against the dead peer and raise a machine check, or, in
// Survivable mode, declare it down and keep running.
func (n *NIC) SetDead() {
	n.dead = true
	n.rel.quarantineAll()
	n.net.SetDead(n.coord)
}

// declarePeerDown is the Survivable-mode failure detector's output: the
// peer's flow is quarantined, further packets to it are suppressed at
// emit, and the kernel (via OnPeerDown) tears down every mapping to and
// from it. Idempotent per peer.
func (n *NIC) declarePeerDown(dstNode int, dst packet.Coord, cause string) {
	if n.downPeers[dst] != nil {
		return
	}
	if n.downPeers == nil {
		n.downPeers = make(map[packet.Coord]*fault.PeerDown)
	}
	pd := &fault.PeerDown{Node: dstNode, At: n.eng.Now(), Cause: cause}
	n.downPeers[dst] = pd
	n.downCount++
	n.stats.PeerDowns++
	n.scope.Inc(obs.CtrPeerDowns)
	n.rel.quarantine(dst)
	if n.OnPeerDown != nil {
		n.OnPeerDown(pd)
	}
}

// PeerDeclaredDown reports whether this node's failure detector has
// declared the peer at coordinate c dead (always false outside
// Survivable mode).
func (n *NIC) PeerDeclaredDown(c packet.Coord) bool {
	return n.downCount != 0 && n.downPeers[c] != nil
}

// Dead reports whether the node has been crashed by fault injection.
func (n *NIC) Dead() bool { return n.dead }

// Table returns the NIPT (the kernel configures mappings through it).
func (n *NIC) Table() *nipt.Table { return n.table }

// Coord returns the NIC's mesh coordinates.
func (n *NIC) Coord() packet.Coord { return n.coord }

// Stats returns a snapshot of NIC statistics.
func (n *NIC) Stats() Stats { return n.stats }

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// OutFIFOBytes returns the current Outgoing FIFO occupancy.
func (n *NIC) OutFIFOBytes() int { return n.out.bytes }

// InFIFOBytes returns the current Incoming FIFO occupancy.
func (n *NIC) InFIFOBytes() int { return n.in.bytes }

// OutStalled reports whether the Outgoing FIFO is above its threshold.
func (n *NIC) OutStalled() bool { return n.out.stalled }

// DMABusy reports whether the deliberate-update engine is running.
func (n *NIC) DMABusy() bool { return n.dma.busy }

// Quiesced reports whether the NIC has no buffered or in-flight work.
// A dead node is quiesced regardless of retained reliable-delivery
// state: it will never make progress, and the machine check raised by
// its peers is the signal harnesses act on.
func (n *NIC) Quiesced() bool {
	if n.dead {
		return true
	}
	return n.out.q.len() == 0 && n.in.q.len() == 0 && !n.out.injecting &&
		!n.in.depositing && !n.dma.busy && n.merge.open == nil &&
		n.rel.idle()
}

// Reset returns the NIC to its just-built state: empty FIFOs, idle DMA
// engine, no open blocked-write packet, zeroed statistics. Queued
// packets return to the packet pool. Callbacks (OnIRQ, OnOutFull,
// OnOutDrained), the NIPT, and the pooled pipeline events persist. The
// caller must also reset the engine (or have drained it): any in-flight
// pipeline events reference state cleared here.
func (n *NIC) Reset() {
	for n.out.q.len() > 0 {
		n.pkts.Put(n.out.q.pop().pkt)
	}
	for n.in.q.len() > 0 {
		n.pkts.Put(n.in.q.pop().pkt)
	}
	if n.in.depositing && n.depositQP.pkt != nil {
		n.pkts.Put(n.depositQP.pkt)
	}
	n.depositQP = queuedPacket{}
	n.out.bytes = 0
	n.out.injecting = false
	n.out.stalled = false
	n.out.stallFrom = 0
	n.in.bytes = 0
	n.in.depositing = false
	chunkBuf := n.dma.chunkBuf
	n.dma = dmaState{chunkBuf: chunkBuf}
	if o := n.merge.open; o != nil {
		// Recycle the open packet's buffer as the spare, as flushMerge does.
		o.m = nil
		n.merge.spare = o
	}
	n.merge.open = nil
	n.merge.timerArmed = false
	n.rel.reset()
	n.dead = false
	clear(n.downPeers)
	n.downCount = 0
	n.stats = Stats{}
}

// snoopNeeded is the page-granular CPU-write snoop filter the NIC
// installs on the Xpress bus. The NIC is the only snooper interested in
// CPU-mastered writes (the cache's invalidation port ignores them), and
// it only acts on pages the NIPT maps out — kernel ring pages included,
// since the boot firmware installs them as out-mappings. The NIPT entry
// is consulted live on every write, so direct entry mutations (MapOut,
// UnmapOut, eviction) need no filter maintenance.
func (n *NIC) snoopNeeded(a phys.PAddr) bool {
	return n.table.MappedOut(a.Page())
}

// SnoopWrite implements bus.Snooper: the outgoing half of Figure 4.
// Only CPU-mastered writes are candidates for forwarding; DMA deposits
// from the network must not be re-forwarded. With the snoop filter
// installed, only writes to mapped-out pages arrive here, so
// Stats.SnoopedWrites counts forward-candidate writes; filtered writes
// land in XpressStats.SnoopsFiltered instead.
func (n *NIC) SnoopWrite(init bus.Initiator, a phys.PAddr, data []byte) {
	if init != bus.InitCPU {
		return
	}
	n.stats.SnoopedWrites++
	n.scope.Inc(obs.CtrSnoopedWrites)
	m, remote, ok := n.table.Resolve(a)
	if !ok || m.Mode == nipt.DeliberateUpdate {
		return
	}
	switch m.Mode {
	case nipt.SingleWriteAU:
		n.flushMerge() // preserve store order across modes
		n.emit(m, remote, data, a.Page(), n.eng.Now(), obs.SpanSingleWrite)
	case nipt.BlockedWriteAU:
		n.mergeWrite(m, remote, data, a.Page())
	}
}

// SnoopRoom implements bus.RunSnooper. A run stays in one NIPT page
// half and inside one remote page, so one resolution covers it.
// Deliberate-update words only update memory. Blocked-write words must
// merge into the open packet, which bounds the run by the packet's
// room. The merge window needs no bound of its own: the merge timer is
// armed and due by lastWrite+MergeWindow+1ps, and the run's words all
// issue before it fires, so none comes more than MergeWindow after the
// write before it. Every other write gets no room: single-write stores,
// packet opens and flushes, and unresolved writes go through SnoopWrite.
func (n *NIC) SnoopRoom(a phys.PAddr, words int) int {
	m, remote, words := n.table.ResolveRun(a, words)
	switch {
	case m == nil:
	case m.Mode == nipt.DeliberateUpdate:
		return words
	case m.Mode == nipt.BlockedWriteAU:
		if o := n.merge.open; o != nil && n.merge.timerArmed && o.m == m && o.startRemote+phys.PAddr(len(o.buf)) == remote {
			return min(words, (n.cfg.MaxPayload-len(o.buf))/4)
		}
	}
	return 0
}

// SnoopRun implements bus.RunSnooper: the effect of one SnoopWrite per
// word of data. Blocked-write words append to the open packet in one
// copy; the merge timer is already armed, so none reschedules it.
func (n *NIC) SnoopRun(a phys.PAddr, data []byte, last sim.Time) {
	k := uint64(len(data) / 4)
	n.stats.SnoopedWrites += k
	n.scope.Add(obs.CtrSnoopedWrites, k)
	n.table.CountLookups(k)
	if n.table.Out(a.Page(), a.Offset()).Mode == nipt.BlockedWriteAU {
		o := n.merge.open
		o.buf = append(o.buf, data...)
		o.lastWrite = last
		n.stats.MergedWrites += k
		n.scope.Add(obs.CtrMergedWrites, k)
	}
}

// emit packetizes payload destined for the given remote address and
// queues it on the Outgoing FIFO after the packetize latency. The
// payload bytes are copied into a pooled packet, so the caller's buffer
// is free for reuse on return. start and kind seed the packet's causal
// span: start is the initiating instant (first merged store for
// blocked-write, the chunk read for deliberate update), which may
// precede now.
func (n *NIC) emit(m *nipt.OutMapping, remote phys.PAddr, payload []byte, srcPage phys.PageNum,
	start sim.Time, kind obs.SpanKind) {
	if n.dead {
		return // a crashed node sends nothing further
	}
	dst := packet.CoordOf(m.DstNode, n.width)
	if n.downCount != 0 && n.downPeers[dst] != nil {
		// The destination was declared dead: suppress the packet before
		// it costs a pool allocation or FIFO space. Reached only by
		// traffic whose mapping record predates the teardown (a DMA
		// command already in flight); post-teardown stores fault at the
		// write-protected page instead. The downCount guard keeps the
		// no-peers-down path to one integer compare.
		n.stats.PeerDownDrops++
		n.scope.Inc(obs.CtrPeerDownDrops)
		return
	}
	p := n.pkts.Get()
	p.Src = n.coord
	p.Dst = dst
	p.DstAddr = remote
	p.Payload = append(p.Payload, payload...)
	if n.table.At(srcPage).KernelRing {
		p.Kind = packet.KernelRing
		kind = obs.SpanKernelRing
	}
	n.rel.tagOut(p, kind, int(m.DstNode))
	p.Span = n.obs.BeginSpan(int(n.node), int(m.DstNode), len(payload), kind, start)
	ev := n.freeEnq
	if ev == nil {
		ev = &enqueueEvent{n: n}
	} else {
		n.freeEnq = ev.next
	}
	ev.p = p
	ev.wire = p.WireSize()
	n.eng.ScheduleAfter(n.cfg.SnoopPacketize, ev)
}

func (n *NIC) enqueueOut(p *packet.Packet, wire int) {
	if n.out.bytes+wire > n.cfg.OutFIFOBytes {
		// The threshold interrupt should make this unreachable: the CPU
		// froze before the FIFO could overflow. Reaching here means the
		// model's headroom (capacity - threshold) is too small. Raise a
		// structured machine check instead of tearing down the process so
		// harnesses and sweeps observe it as a run failure.
		n.eng.Fail(&fault.MachineCheck{
			Node: int(n.node), Kind: fault.CheckOutFIFOOverflow, At: n.eng.Now(),
			Detail: fmt.Sprintf("%d+%d > %d bytes", n.out.bytes, wire, n.cfg.OutFIFOBytes),
		})
		n.obs.SpanDropped(p.Span, n.eng.Now())
		n.pkts.Put(p)
		return
	}
	n.out.q.push(queuedPacket{p, wire})
	n.out.bytes += wire
	n.obs.SpanEnqueued(p.Span, n.eng.Now())
	n.scope.Set(obs.GaugeOutFIFOBytes, int64(n.out.bytes))
	n.scope.Observe(obs.HistOutFIFODepth, uint64(n.out.bytes))
	if n.out.bytes > n.stats.MaxOutFIFOBytes {
		n.stats.MaxOutFIFOBytes = n.out.bytes
	}
	if !n.out.stalled && n.out.bytes > n.cfg.OutThreshold {
		n.out.stalled = true
		n.out.stallFrom = n.eng.Now()
		n.stats.OutFullEvents++
		n.scope.Inc(obs.CtrOutStalls)
		if n.OnOutFull != nil {
			n.OnOutFull()
		}
	}
	n.drainOut()
}

// drainOut pushes the FIFO head into the backplane, one packet at a time
// (the injection port is released when the worm's tail leaves the node).
func (n *NIC) drainOut() {
	if n.out.injecting || n.out.q.len() == 0 {
		return
	}
	n.out.injecting = true
	n.eng.ScheduleAfter(n.cfg.OutFIFOLatency+n.cfg.InjectSetup, &n.injectEv)
}

// injectorFree fires when the injected worm's tail has left this node:
// the packet's bytes have drained from the Outgoing FIFO.
func (n *NIC) injectorFree() {
	if !n.out.injecting {
		return
	}
	head := n.out.q.pop()
	n.out.bytes -= head.wire
	n.out.injecting = false
	n.stats.PacketsOut++
	if head.pkt.Kind == packet.KernelRing {
		n.stats.KernelPacketsOut++
	}
	n.stats.BytesOut += uint64(len(head.pkt.Payload))
	n.scope.Inc(obs.CtrPacketsOut)
	n.scope.Add(obs.CtrBytesOut, uint64(len(head.pkt.Payload)))
	n.scope.Set(obs.GaugeOutFIFOBytes, int64(n.out.bytes))
	if n.out.stalled && n.out.bytes <= n.cfg.OutThreshold {
		n.out.stalled = false
		n.stats.OutStallTime += n.eng.Now() - n.out.stallFrom
		if n.OnOutDrained != nil {
			n.OnOutDrained()
		}
	}
	n.dma.kick(n)
	n.drainOut()
}
