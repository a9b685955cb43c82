package obs

import "repro/internal/sim"

// Causal packet spans. A span is minted when a transfer is initiated —
// the snooped store for automatic update, the chunk read of an accepted
// LOCK CMPXCHG command for deliberate update — and its reference rides
// the packet (packet.Packet.Span) through the outgoing FIFO, the
// wormhole mesh, and the receiving NIC's deposit pipeline. Completion
// feeds the per-stage histograms on the *source* node's scope and
// retains the span in a bounded ring for timeline export.
//
// Stage boundaries:
//
//	Start     initiating store snooped / DMA chunk read issued /
//	          first write merged into a blocked-write packet
//	Enqueued  packet entered the Outgoing FIFO (snoop+packetize done)
//	Injected  packet's worm entered the routing backplane
//	Delivered worm fully drained into the receiving Incoming FIFO
//	Deposited payload written to destination memory (or the packet
//	          was dropped: Dropped is set and Deposited is the drop
//	          instant)
//
// Allocation is sharded per source node: minting and the send-side
// stage stamps happen on the minting node's event stream. Completion
// (and the shared completed ring) is a fabric action, routed through
// mesh.Release/DropSpan. Timestamps are passed in explicitly, so the
// registry needs no engine reference.

// SpanKind classifies what initiated a span's transfer.
type SpanKind uint8

const (
	// SpanSingleWrite: one snooped store, single-write automatic update.
	SpanSingleWrite SpanKind = iota
	// SpanBlockedWrite: a merged blocked-write packet; Start is the
	// first merged store.
	SpanBlockedWrite
	// SpanDeliberate: one chunk of a deliberate-update DMA transfer;
	// Start is the chunk's Xpress read.
	SpanDeliberate
	// SpanKernelRing: traffic on the boot-time kernel message rings.
	SpanKernelRing
	// SpanRetransmit: a reliable-delivery retransmission of an earlier
	// data packet (fault mode); Start is the retransmit instant, so the
	// span shows only the re-sent copy's journey.
	SpanRetransmit
	// SpanControl: a reliable-delivery ACK/NACK control packet.
	SpanControl
	numSpanKinds
)

var spanKindNames = [...]string{
	"single-write", "blocked-write", "deliberate", "kernel-ring",
	"retransmit", "control",
}

const _ = uint(int(numSpanKinds) - len(spanKindNames))

var _ = spanKindNames[numSpanKinds-1]

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "span(?)"
}

// Span is one transfer's record. All timestamps are absolute simulated
// time; a zero later-stage timestamp means the span never reached that
// stage (only possible for spans still in flight at export time).
type Span struct {
	ID        uint64   `json:"id"`
	Src       int      `json:"src"`
	Dst       int      `json:"dst"`
	Bytes     int      `json:"bytes"`
	Kind      SpanKind `json:"kind"`
	Dropped   bool     `json:"dropped,omitempty"`
	Start     sim.Time `json:"start"`
	Enqueued  sim.Time `json:"enqueued"`
	Injected  sim.Time `json:"injected"`
	Delivered sim.Time `json:"delivered"`
	Deposited sim.Time `json:"deposited"`
}

// spanShard is one source node's in-flight span slab. Only that node's
// event stream allocates from it or stamps send-side stages. The slab
// grows on demand up to its capacity (it is not preallocated: a
// 1,024-node machine would otherwise pay capacity × nodes up front).
type spanShard struct {
	active    []Span
	freeList  []int32 // slots returned by finished spans
	nextID    uint64
	truncated uint64 // spans not tracked because the shard was full
	capacity  int
}

// spanTable is the per-node shards plus the bounded ring of completed
// spans. References handed to packets encode (src+1, slot+1), so the
// hot path is two array indexings; 0 = no span.
type spanTable struct {
	shards    []spanShard
	completed []Span // ring of the last cap(completed) finished spans
	next      int    // ring write position
	finished  uint64 // completed spans (including dropped)
	dropped   uint64 // completed spans that were packet drops
}

func (t *spanTable) init(nodes, capacity int) {
	t.shards = make([]spanShard, nodes)
	for i := range t.shards {
		t.shards[i].capacity = capacity
	}
	t.completed = make([]Span, 0, capacity)
	t.reset()
}

// reset costs O(slots actually used): each shard's slab truncates in
// place (capacity retained), so a sweep pool resetting per point never
// pays for untouched capacity. Reset state is independent of prior
// traffic, keeping Reset-reused machines bit-identical to fresh ones.
func (t *spanTable) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		clear(sh.active)
		sh.active = sh.active[:0]
		sh.freeList = sh.freeList[:0]
		sh.nextID = 0
		sh.truncated = 0
	}
	t.completed = t.completed[:0]
	t.next = 0
	t.finished = 0
	t.dropped = 0
}

// BeginSpan mints a span on src's shard and returns its reference for
// the packet (0 when untracked: nil registry or shard exhausted). start
// may precede the current time (blocked-write packets start at their
// first merged store). Span IDs are (src, per-shard sequence) so they
// are unique and deterministic.
func (r *Registry) BeginSpan(src, dst, bytes int, kind SpanKind, start sim.Time) uint64 {
	if r == nil {
		return 0
	}
	sh := &r.spans.shards[src]
	// Freed slots are reused first, then never-used ones — the same
	// ascending order a pre-filled descending free list would hand out.
	var slot int32
	if n := len(sh.freeList); n > 0 {
		slot = sh.freeList[n-1]
		sh.freeList = sh.freeList[:n-1]
	} else if len(sh.active) < sh.capacity {
		slot = int32(len(sh.active))
		sh.active = append(sh.active, Span{})
	} else {
		sh.truncated++
		return 0
	}
	sh.nextID++
	sh.active[slot] = Span{
		ID: uint64(src)<<40 | sh.nextID, Src: src, Dst: dst, Bytes: bytes,
		Kind: kind, Start: start,
	}
	return uint64(src+1)<<32 | uint64(slot) + 1
}

// span resolves a packet reference to its active slot, or nil.
func (r *Registry) span(ref uint64) *Span {
	if r == nil || ref == 0 {
		return nil
	}
	return &r.spans.shards[int(ref>>32)-1].active[uint32(ref)-1]
}

// SpanEnqueued records the packet entering the Outgoing FIFO at now;
// nil-safe.
func (r *Registry) SpanEnqueued(ref uint64, now sim.Time) {
	if s := r.span(ref); s != nil {
		s.Enqueued = now
	}
}

// SpanInjected records the packet's worm entering the backplane at now;
// nil-safe.
func (r *Registry) SpanInjected(ref uint64, now sim.Time) {
	if s := r.span(ref); s != nil {
		s.Injected = now
	}
}

// SpanDelivered records the worm fully drained into the receiving
// Incoming FIFO at now; nil-safe.
func (r *Registry) SpanDelivered(ref uint64, now sim.Time) {
	if s := r.span(ref); s != nil {
		s.Delivered = now
	}
}

// SpanDeposited completes the span at now: the payload reached
// destination memory. Stage durations feed the source node's histograms
// and the span is retained for export; nil-safe.
func (r *Registry) SpanDeposited(ref uint64, now sim.Time) { r.finish(ref, now, false) }

// SpanDropped completes the span as a packet drop at now (wrong
// destination, CRC failure, or not mapped in). Stages reached still
// feed the histograms; the total-stage histogram does not; nil-safe.
func (r *Registry) SpanDropped(ref uint64, now sim.Time) { r.finish(ref, now, true) }

func (r *Registry) finish(ref uint64, now sim.Time, dropped bool) {
	s := r.span(ref)
	if s == nil {
		return
	}
	s.Deposited = now
	s.Dropped = dropped
	src := &r.nodes[s.Src]
	src.ObserveTime(HistStageSnoop, s.Enqueued-s.Start)
	src.ObserveTime(HistStageFIFO, s.Injected-s.Enqueued)
	src.ObserveTime(HistStageMesh, s.Delivered-s.Injected)
	src.ObserveTime(HistStageDeposit, now-s.Delivered)
	if !dropped {
		src.ObserveTime(HistStageTotal, now-s.Start)
	}

	t := &r.spans
	t.finished++
	if dropped {
		t.dropped++
	}
	// Retain in the bounded completed ring (last cap spans win).
	if len(t.completed) < cap(t.completed) {
		t.completed = append(t.completed, *s)
	} else {
		t.completed[t.next] = *s
		t.next = (t.next + 1) % cap(t.completed)
	}
	sh := &t.shards[s.Src]
	slot := int32(uint32(ref) - 1)
	sh.active[slot] = Span{}
	sh.freeList = append(sh.freeList, slot)
}

// CompletedSpans returns the retained completed spans in completion
// order; nil-safe.
func (r *Registry) CompletedSpans() []Span {
	if r == nil {
		return nil
	}
	t := &r.spans
	if len(t.completed) < cap(t.completed) {
		return append([]Span(nil), t.completed...)
	}
	out := make([]Span, 0, len(t.completed))
	out = append(out, t.completed[t.next:]...)
	out = append(out, t.completed[:t.next]...)
	return out
}

// SpanCounts reports lifetime span accounting: completed spans
// (including drops), completed spans that were drops, and spans left
// untracked because a shard was full; nil-safe.
func (r *Registry) SpanCounts() (finished, dropped, truncated uint64) {
	if r == nil {
		return 0, 0, 0
	}
	for i := range r.spans.shards {
		truncated += r.spans.shards[i].truncated
	}
	return r.spans.finished, r.spans.dropped, truncated
}
