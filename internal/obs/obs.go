// Package obs is the machine-wide observability layer: a metrics
// registry of typed counters, gauges and fixed-bucket histograms, plus
// causal packet spans that reconstruct a single transfer's full
// simulated-time breakdown (snoop → outgoing FIFO → mesh → deposit).
//
// The paper's evaluation (Table 1, §4–5) hinges on knowing where cycles
// go; this package is the simulator's answer. Design contract:
//
//   - Allocation-free on hot paths. Counters, gauges and histograms are
//     preallocated arrays indexed by const IDs; spans come from a
//     preallocated slab with a free list. Recording never allocates.
//   - Nil-safe everywhere. A nil *Registry, *NodeScope or *LinkStat
//     records nothing, so components carry optional instrumentation
//     without checks at every call site. Metrics are compiled in but
//     off by default (core.Config.Metrics).
//   - Observation only. Recording takes timestamps from its callers and
//     never schedules events or advances time, so enabling metrics
//     cannot change any simulated result — the differential tests in
//     internal/core enforce bit-identical outputs with metrics on and
//     off.
//   - Reset support. Registry.Reset returns every counter, histogram,
//     link stat and span table to its just-built state in place, so the
//     sweep harnesses' machine-reuse pools stay bit-identical.
package obs

import (
	"math/bits"

	"repro/internal/sim"
)

// Counter identifies one per-node monotonic counter.
type Counter uint8

// Per-node counters, one block per instrumented component.
const (
	// NIC outgoing path.
	CtrSnoopedWrites Counter = iota
	CtrPacketsOut
	CtrBytesOut
	CtrMergedWrites
	CtrMergedPackets
	CtrOutStalls
	// NIC incoming path.
	CtrPacketsIn
	CtrBytesIn
	CtrDrops
	CtrIRQs
	// Deliberate-update engine.
	CtrDMACommands
	CtrDMAChunks
	CtrDMARejected
	// NIPT.
	CtrNIPTLookups
	CtrNIPTMisses
	// Xpress memory bus.
	CtrBusTxns
	CtrBusWaitPs
	// Kernel page operations.
	CtrKernelMaps
	CtrKernelUnmaps
	CtrKernelEvictions
	CtrKernelPageIns
	// Snoop filter: CPU writes that skipped the snooper fan-out because
	// the target page has no out-mapping.
	CtrSnoopsFiltered
	// Batched CPU interpretation: why each batch ended (see isa.CPU).
	CtrBatchBreakEvent   // a pending engine event inside the run-ahead window
	CtrBatchBreakQuantum // the configured max-batch quantum was reached
	CtrBatchBreakFault   // a translation fault (retry reschedules)
	CtrBatchBreakHalt    // HLT, sentinel RET, or abort
	CtrBatchBreakFreeze  // the kernel froze the CPU mid-batch
	// Superblock trace cache (isa/tracecache.go): dispatches served from
	// a built superblock, dispatches that had to build one, and whole-
	// cache invalidations (CPU reset / program churn).
	CtrTraceHits
	CtrTraceMisses
	CtrTraceFlushes
	// Fault injection (internal/fault): events the injector fired,
	// charged to the node that injected the packet.
	CtrFaultDrops    // packets lost in flight
	CtrFaultCorrupts // packets damaged in flight
	// Reliable-delivery layer (internal/nic/reliable.go).
	CtrRelRetransmits // data packets re-sent (timeout or NACK)
	CtrRelAcks        // cumulative ACKs sent by the receiver
	CtrRelNacks       // gap NACKs sent by the receiver
	CtrRelDups        // duplicate data packets discarded by the receiver
	CtrRelBackoffs    // retransmit-timeout escalations at the sender
	CtrAUSeqGaps      // automatic-update per-page sequence gaps (lost stores)

	// Survivable-mode failure detector (crash survival).
	CtrPeerDowns     // peers this node's failure detector declared dead
	CtrPeerDownDrops // outbound packets suppressed against a declared-dead peer
	numCounters
)

var counterNames = [...]string{
	"snooped-writes", "packets-out", "bytes-out", "merged-writes",
	"merged-packets", "out-stalls",
	"packets-in", "bytes-in", "drops", "irqs",
	"dma-commands", "dma-chunks", "dma-rejected",
	"nipt-lookups", "nipt-misses",
	"bus-txns", "bus-wait-ps",
	"kernel-maps", "kernel-unmaps", "kernel-evictions", "kernel-pageins",
	"snoops-filtered",
	"batch-break-event", "batch-break-quantum", "batch-break-fault",
	"batch-break-halt", "batch-break-freeze",
	"trace-hits", "trace-misses", "trace-flushes",
	"fault-drops", "fault-corrupts",
	"rel-retransmits", "rel-acks", "rel-nacks", "rel-dups", "rel-backoffs",
	"au-seq-gaps",
	"peer-downs", "peer-down-drops",
}

// Compile-time guards: counterNames must list exactly numCounters names.
const _ = uint(int(numCounters) - len(counterNames)) // more names than counters
var _ = counterNames[numCounters-1]                  // more counters than names

func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter(?)"
}

// Gauge identifies one per-node instantaneous value.
type Gauge uint8

const (
	// GaugeOutFIFOBytes is the Outgoing FIFO's current occupancy.
	GaugeOutFIFOBytes Gauge = iota
	// GaugeInFIFOBytes is the Incoming FIFO's current occupancy.
	GaugeInFIFOBytes
	numGauges
)

var gaugeNames = [...]string{"out-fifo-bytes", "in-fifo-bytes"}

const _ = uint(int(numGauges) - len(gaugeNames))

var _ = gaugeNames[numGauges-1]

func (g Gauge) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "gauge(?)"
}

// Hist identifies one per-node fixed-bucket histogram. The stage
// histograms are fed from completed causal spans (see span.go); the
// occupancy histograms are fed at FIFO enqueue/accept time.
type Hist uint8

const (
	// HistOutFIFODepth observes Outgoing FIFO occupancy (bytes) after
	// each enqueue.
	HistOutFIFODepth Hist = iota
	// HistInFIFODepth observes Incoming FIFO occupancy (bytes) after
	// each accepted worm.
	HistInFIFODepth
	// HistPayload observes delivered packet payload sizes (bytes).
	HistPayload
	// HistStageSnoop: initiating store/DMA read → Outgoing FIFO entry
	// (snoop, NIPT lookup, merge wait, packetize), in picoseconds.
	HistStageSnoop
	// HistStageFIFO: Outgoing FIFO entry → backplane injection.
	HistStageFIFO
	// HistStageMesh: injection → worm fully drained into the receiving
	// Incoming FIFO (includes parks and link contention).
	HistStageMesh
	// HistStageDeposit: Incoming FIFO entry → payload in destination
	// memory (FIFO traversal plus EISA/Xpress DMA).
	HistStageDeposit
	// HistStageTotal: initiating store → deposited (end to end).
	HistStageTotal
	// HistBatchLen observes the number of instructions the CPU retired
	// per engine event (batched interpretation; see isa.CPU).
	HistBatchLen
	numHists
)

var histNames = [...]string{
	"out-fifo-depth", "in-fifo-depth", "payload-bytes",
	"stage-snoop", "stage-fifo", "stage-mesh", "stage-deposit", "stage-total",
	"batch-len",
}

const _ = uint(int(numHists) - len(histNames))

var _ = histNames[numHists-1]

func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "hist(?)"
}

// HistBuckets is the fixed bucket count of every histogram: bucket i
// holds values v with bits.Len64(v) == i, i.e. log2-spaced buckets
// [2^(i-1), 2^i). 48 buckets cover picosecond timestamps past 2^47 ps
// (~140 s of simulated time) and any byte count the simulator produces.
const HistBuckets = 48

// Histogram is a fixed-bucket log2 histogram. Observe is allocation-free.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [HistBuckets]uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.Count++
	h.Sum += v
	if v > h.Max {
		h.Max = v
	}
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.Buckets[b]++
}

// Mean returns the arithmetic mean of observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// QuantileInterp estimates the q-quantile (0 <= q <= 1) by linear
// interpolation of the rank within the log2 bucket containing it,
// assuming observations are uniform inside a bucket: a typical error of
// a few percent on the p99/p999 numbers the reports surface, where a
// bucket's upper edge could overestimate by 2x. The top bucket is
// clamped to Max, so q=1 returns the exact maximum.
func (h *Histogram) QuantileInterp(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max
	}
	if q < 0 {
		q = 0
	}
	pos := q * float64(h.Count-1) // continuous rank in [0, Count-1]
	var seen uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if pos < float64(seen+n) {
			if i == 0 {
				return 0 // bucket 0 holds only the value 0
			}
			lo := uint64(1) << uint(i-1)
			hi := uint64(1)<<uint(i) - 1
			if hi > h.Max {
				hi = h.Max
			}
			if lo > hi {
				lo = hi
			}
			frac := (pos - float64(seen)) / float64(n)
			return lo + uint64(frac*float64(hi-lo)+0.5)
		}
		seen += n
	}
	return h.Max
}

// Delta returns the observations h has accumulated since prev (an
// earlier copy of the same histogram): Count, Sum and Buckets subtract;
// Max carries over from h, since a maximum cannot be windowed. The
// flight recorder derives per-window rates and quantiles this way.
func (h *Histogram) Delta(prev *Histogram) Histogram {
	d := Histogram{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, Max: h.Max}
	for i := range d.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return d
}

// Merge adds o's observations into h (snapshot aggregation; Max is the
// pairwise max, quantiles stay exact to bucket width).
func (h *Histogram) Merge(o *Histogram) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// NodeScope is one node's metrics: a counter/gauge/histogram block.
// Components hold a *NodeScope (nil when metrics are disabled) and
// record through it unconditionally.
type NodeScope struct {
	counters [numCounters]uint64
	gauges   [numGauges]int64
	hists    [numHists]Histogram
}

// Inc adds 1 to a counter; nil-safe.
func (s *NodeScope) Inc(c Counter) {
	if s != nil {
		s.counters[c]++
	}
}

// Add adds n to a counter; nil-safe.
func (s *NodeScope) Add(c Counter, n uint64) {
	if s != nil {
		s.counters[c] += n
	}
}

// Set sets a gauge; nil-safe.
func (s *NodeScope) Set(g Gauge, v int64) {
	if s != nil {
		s.gauges[g] = v
	}
}

// Observe records a value into a histogram; nil-safe.
func (s *NodeScope) Observe(h Hist, v uint64) {
	if s != nil {
		s.hists[h].Observe(v)
	}
}

// ObserveTime records a duration (in picoseconds) into a histogram;
// nil-safe. Negative durations (impossible for well-formed spans) are
// clamped to zero rather than wrapping.
func (s *NodeScope) ObserveTime(h Hist, d sim.Time) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.hists[h].Observe(uint64(d))
}

// Counter reads a counter; nil-safe (0).
func (s *NodeScope) Counter(c Counter) uint64 {
	if s == nil {
		return 0
	}
	return s.counters[c]
}

// Hist returns a copy of a histogram; nil-safe (zero histogram).
func (s *NodeScope) Hist(h Hist) Histogram {
	if s == nil {
		return Histogram{}
	}
	return s.hists[h]
}

func (s *NodeScope) reset() { *s = NodeScope{} }

// LinkStat is one mesh channel's counters (a link, injection port or
// ejection port). The mesh stores a *LinkStat per channel; a nil
// *LinkStat records nothing.
type LinkStat struct {
	Name       string `json:"name"`
	Traversals uint64 `json:"traversals"` // worms that acquired the channel
	FlitHops   uint64 `json:"flit_hops"`  // flits carried
	Waits      uint64 `json:"waits"`      // worms that queued behind an owner
	MaxQueue   int    `json:"max_queue"`  // deepest waiter queue seen
}

// Take records a worm acquiring the channel with the given flit count;
// nil-safe.
func (l *LinkStat) Take(flits int) {
	if l == nil {
		return
	}
	l.Traversals++
	l.FlitHops += uint64(flits)
}

// Wait records a worm queuing behind the channel's owner, with the
// resulting waiter-queue depth; nil-safe.
func (l *LinkStat) Wait(queue int) {
	if l == nil {
		return
	}
	l.Waits++
	if queue > l.MaxQueue {
		l.MaxQueue = queue
	}
}

// DefaultSpanCapacity is the default bound on concurrently-active and
// retained-completed causal spans (see Registry).
const DefaultSpanCapacity = 8192

// Registry is the machine-wide metrics registry: one NodeScope per
// node, one LinkStat per registered mesh channel, and the causal span
// table. A nil *Registry is valid and records nothing.
type Registry struct {
	nodes []NodeScope
	links []*LinkStat
	spans spanTable
}

// New builds a registry for a machine of the given node count. spanCap
// bounds each node's in-flight spans and the retained-completed ring
// (<= 0 selects DefaultSpanCapacity). The registry holds no engine
// reference: span stages take explicit timestamps.
func New(nodes, spanCap int) *Registry {
	if spanCap <= 0 {
		spanCap = DefaultSpanCapacity
	}
	r := &Registry{nodes: make([]NodeScope, nodes)}
	r.spans.init(nodes, spanCap)
	return r
}

// NodeCount returns the number of node scopes; nil-safe (0).
func (r *Registry) NodeCount() int {
	if r == nil {
		return 0
	}
	return len(r.nodes)
}

// Node returns node i's scope; nil-safe (nil scope).
func (r *Registry) Node(i int) *NodeScope {
	if r == nil {
		return nil
	}
	return &r.nodes[i]
}

// Link registers (or re-registers) a named link counter block and
// returns it; nil-safe (nil stat). Names are expected to be unique; the
// mesh registers each channel once at attach time.
func (r *Registry) Link(name string) *LinkStat {
	if r == nil {
		return nil
	}
	l := &LinkStat{Name: name}
	r.links = append(r.links, l)
	return l
}

// Links returns the registered link stats in registration order;
// nil-safe.
func (r *Registry) Links() []*LinkStat {
	if r == nil {
		return nil
	}
	return r.links
}

// Reset zeroes every counter, gauge, histogram, link stat and span —
// back to the just-built state, in place. Link registrations persist
// (wiring, not state); nil-safe.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.nodes {
		r.nodes[i].reset()
	}
	for _, l := range r.links {
		name := l.Name
		*l = LinkStat{Name: name}
	}
	r.spans.reset()
}

// StageHist aggregates one stage histogram across all nodes; nil-safe
// (zero histogram).
func (r *Registry) StageHist(h Hist) Histogram {
	var out Histogram
	if r == nil {
		return out
	}
	for i := range r.nodes {
		hist := r.nodes[i].hists[h]
		out.Merge(&hist)
	}
	return out
}

// Total sums a counter across all nodes; nil-safe (0).
func (r *Registry) Total(c Counter) uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.nodes {
		t += r.nodes[i].counters[c]
	}
	return t
}
