// Package shrimp is a full-system simulation of the SHRIMP multicomputer
// and its virtual memory-mapped network interface (Blumrich, Li, Alpert,
// Dubnicki, Felten, Sandberg — Princeton University).
//
// A Machine is a 2-D wormhole mesh of nodes; each node is a CPU (an
// i386-subset interpreter), a per-page write-through/write-back cache, an
// Xpress memory bus, an EISA expansion bus, DRAM, a kernel, and the
// network interface itself: a bus snooper driven by a Network Interface
// Page Table that turns ordinary stores to mapped pages into network
// packets. The paper's three core mechanisms are all here:
//
//   - virtual memory mapping: Kernel.Map validates protection once and
//     installs physical mappings in the NIPT; thereafter communication
//     is pure user-level stores;
//   - automatic update: snooped stores propagate immediately
//     (single-write) or merged (blocked-write);
//   - deliberate update: user-level DMA block transfer initiated with a
//     locked CMPXCHG on a VM-mapped command page.
//
// # Quickstart
//
//	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
//	snd := shrimp.NewEndpoint(m.Node(0))
//	rcv := shrimp.NewEndpoint(m.Node(1))
//	ch, err := shrimp.NewChannel(m, snd, rcv, 1)
//	...
//	ch.Send([]byte("hello, mesh"))
//	data, err := ch.Recv()
//
// Everything runs on a deterministic discrete-event clock: Send/Recv and
// the experiment harnesses advance simulated time; wall-clock time plays
// no role. See EXPERIMENTS.md for the paper-versus-measured results.
package shrimp

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/nx"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Machine construction and topology.
type (
	// Machine is a booted SHRIMP multicomputer.
	Machine = core.Machine
	// Node is one node: CPU, cache, buses, memory, NIC, kernel.
	Node = core.Node
	// Config describes a machine.
	Config = core.Config
	// NodeID identifies a node.
	NodeID = packet.NodeID
	// Coord is a position on the routing backplane.
	Coord = packet.Coord
	// Generation selects the NIC's incoming deposit path.
	Generation = nic.Generation
)

// Operating system objects.
type (
	// Process is one schedulable address space.
	Process = kernel.Process
	// Kernel is one node's operating system.
	Kernel = kernel.Kernel
	// Mapping is the handle returned by Map.
	Mapping = kernel.Mapping
	// Future is an asynchronous kernel operation's completion handle.
	Future = kernel.Future
	// PagingPolicy selects the §4.4 consistency policy.
	PagingPolicy = kernel.PagingPolicy
	// VAddr is a process virtual address.
	VAddr = vm.VAddr
)

// Mapping modes and generations.
type Mode = nipt.Mode

// Update strategies (paper §2, §4.1, §4.3).
const (
	// SingleWriteAU sends one packet per snooped store (lowest latency).
	SingleWriteAU = nipt.SingleWriteAU
	// BlockedWriteAU merges consecutive stores into one packet.
	BlockedWriteAU = nipt.BlockedWriteAU
	// DeliberateUpdate transfers only on an explicit user-level command.
	DeliberateUpdate = nipt.DeliberateUpdate
)

// NIC generations (paper §3, §5.1).
const (
	// GenEISAPrototype deposits incoming data over the EISA bus.
	GenEISAPrototype = nic.GenEISAPrototype
	// GenXpress is the next generation, mastering the memory bus.
	GenXpress = nic.GenXpress
)

// Paging policies (paper §4.4).
const (
	// PinPages refuses to evict pages with incoming mappings.
	PinPages = kernel.PinPages
	// InvalidateProtocol shoots down remote mappings before replacement.
	InvalidateProtocol = kernel.InvalidateProtocol
)

// PageSize is the system page size (4 KB).
const PageSize = phys.PageSize

// Observability (see Config.Metrics). The registry lives on
// Machine.Obs; Machine.Metrics() snapshots it and Machine.TraceJSON
// exports a Perfetto-loadable timeline.
type (
	// Metrics is the machine-wide registry of counters, gauges,
	// histograms, link stats and causal packet spans.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time export of the registry.
	MetricsSnapshot = obs.Snapshot
	// Span is one transfer's causal record: snoop → outgoing FIFO →
	// mesh → deposit timestamps.
	Span = obs.Span
	// RecorderConfig arms the flight recorder (Config.Recorder): a
	// zero-allocation sampler that snapshots the registry into a ring at
	// a fixed simulated cadence. Requires Config.Metrics.
	RecorderConfig = obs.RecorderConfig
	// Recorder is the armed flight recorder, on Machine.Rec.
	Recorder = obs.Recorder
)

// Simulated time.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// New boots a machine.
func New(cfg Config) *Machine { return core.New(cfg) }

// ConfigFor builds a config for a w×h mesh of the given generation.
func ConfigFor(w, h int, gen Generation) Config { return core.ConfigFor(w, h, gen) }

// Message passing (Go-level protocol implementations).
type (
	// Endpoint is a process on a node, one side of a channel.
	Endpoint = msg.Endpoint
	// Channel is a single-buffered one-way channel (Figure 5).
	Channel = msg.Channel
	// DoubleChannel is the Figure 6 double-buffered channel.
	DoubleChannel = msg.DoubleChannel
	// BlockSender drives §4.3 deliberate-update block transfers.
	BlockSender = msg.BlockSender
	// Barrier synchronizes N endpoints with mapped flag words.
	Barrier = msg.Barrier
)

// NewEndpoint creates a fresh process on a node.
func NewEndpoint(n *Node) Endpoint { return msg.NewEndpoint(n) }

// NewChannel builds a single-buffered channel of the given page count.
func NewChannel(m *Machine, snd, rcv Endpoint, pages int) (*Channel, error) {
	return msg.NewChannel(m, snd, rcv, pages)
}

// NewDoubleChannel builds a double-buffered channel.
func NewDoubleChannel(m *Machine, snd, rcv Endpoint, pages int) (*DoubleChannel, error) {
	return msg.NewDoubleChannel(m, snd, rcv, pages)
}

// NewBlockSender maps a deliberate-update region with command pages.
func NewBlockSender(m *Machine, snd, rcv Endpoint, pages int) (*BlockSender, error) {
	return msg.NewBlockSender(m, snd, rcv, pages)
}

// NewBarrier builds a reusable barrier; parts[0] is the root.
func NewBarrier(m *Machine, parts []Endpoint) (*Barrier, error) {
	return msg.NewBarrier(m, parts)
}

// NXPort is one side of an NX/2-compatible connection: typed messages,
// FIFO dispatch with user-level buffering, probes, and asynchronous
// send/receive — the full programming surface §5.2's csend/crecv belong
// to, running entirely on mapped memory.
type NXPort = nx.Port

// NXAnyType matches any message type in NXPort receives and probes.
const NXAnyType = nx.AnyType

// OpenNXPair connects two endpoints with an NX/2 port on each side.
func OpenNXPair(m *Machine, a, b Endpoint, pages int) (*NXPort, *NXPort, error) {
	return nx.OpenPair(m, a, b, pages)
}

// Evaluation harnesses (the paper's §5 experiments).
type (
	// Overhead is one Table 1 row.
	Overhead = msg.Overhead
	// BaselineComparison is the §5.2 SHRIMP-vs-NX/2 comparison.
	BaselineComparison = msg.BaselineComparison
	// LatencyResult is one §5.1 latency measurement.
	LatencyResult = core.LatencyResult
	// BandwidthResult is one §5.1 bandwidth point.
	BandwidthResult = core.BandwidthResult
	// AUBandwidthResult is one automatic-update ablation point.
	AUBandwidthResult = core.AUBandwidthResult
	// OverlapResult quantifies the §4.1 computation/communication overlap.
	OverlapResult = core.OverlapResult
	// MergeWindowResult is one blocked-write window sweep point.
	MergeWindowResult = core.MergeWindowResult
)

// MeasureTable1 reproduces every row of Table 1 (instruction counts).
func MeasureTable1(gen Generation) []Overhead { return msg.MeasureTable1(ConfigFor(2, 1, gen)) }

// MeasureBaseline runs the kernel-mediated NX/2 baseline comparison.
func MeasureBaseline(gen Generation) BaselineComparison {
	return msg.MeasureBaseline(ConfigFor(2, 1, gen))
}

// LatencySweep measures store latency from node 0 to every other node.
func LatencySweep(cfg Config) []LatencyResult { return core.LatencySweep(cfg, 1) }

// LatencySweepParallel is LatencySweep fanned across a deterministic
// worker pool (one machine per worker, results in input order — output
// is bit-identical to LatencySweep). workers <= 0 selects GOMAXPROCS
// workers.
func LatencySweepParallel(cfg Config, workers int) []LatencyResult {
	return core.LatencySweep(cfg, workers)
}

// MaxLatency measures the corner-to-corner store latency.
func MaxLatency(cfg Config) LatencyResult { return core.MaxLatency(New(cfg)) }

// MeasureDeliberateBandwidth measures sustained deliberate-update
// bandwidth at one transfer size.
func MeasureDeliberateBandwidth(cfg Config, src, dst, transferBytes, totalBytes int) BandwidthResult {
	return core.MeasureDeliberateBandwidth(New(cfg), src, dst, transferBytes, totalBytes)
}

// BandwidthSweep sweeps deliberate-update bandwidth over transfer sizes.
func BandwidthSweep(cfg Config, sizes []int, totalBytes int) []BandwidthResult {
	return core.BandwidthSweep(cfg, sizes, totalBytes, 1)
}

// BandwidthSweepParallel is BandwidthSweep on the deterministic worker
// pool; output is bit-identical to BandwidthSweep.
func BandwidthSweepParallel(cfg Config, sizes []int, totalBytes, workers int) []BandwidthResult {
	return core.BandwidthSweep(cfg, sizes, totalBytes, workers)
}

// AUBandwidthSweep runs the automatic-update ablation per mode on the
// deterministic worker pool.
func AUBandwidthSweep(cfg Config, modes []Mode, stores, workers int) []AUBandwidthResult {
	return core.AUBandwidthSweep(cfg, modes, stores, workers)
}

// MergeWindowSweep runs MeasureMergeWindow per window on the
// deterministic worker pool.
func MergeWindowSweep(cfg Config, windows []Time, storeGap Time, stores, workers int) []MergeWindowResult {
	return core.MergeWindowSweep(cfg, windows, storeGap, stores, workers)
}

// MeasureAUBandwidth measures automatic-update store streaming (the
// single-write versus blocked-write ablation).
func MeasureAUBandwidth(cfg Config, mode Mode, stores int) AUBandwidthResult {
	return core.MeasureAUBandwidth(New(cfg), mode, stores)
}

// MeasureOverlap compares CPU-visible completion time of one compute
// loop with and without an automatic-update mapping on its output
// buffer (the §4.1 overlap claim).
func MeasureOverlap(cfg Config, mode Mode, iters int) OverlapResult {
	return core.MeasureOverlap(New(cfg), mode, iters)
}

// MeasureMergeWindow sweeps the §4.1 blocked-write programmable time
// limit against a fixed inter-store gap.
func MeasureMergeWindow(cfg Config, window, storeGap Time, stores int) MergeWindowResult {
	cfg.NIC.MergeWindow = window
	return core.MeasureMergeWindow(New(cfg), storeGap, stores)
}

// Fault injection and reliable delivery (Config.Faults; DESIGN.md §9).
type (
	// FaultConfig is the machine-wide deterministic fault plan: seeded
	// per-packet drop and corrupt rates, up to two scheduled node
	// crashes, and the reliable, survivable and heartbeat layers.
	FaultConfig = fault.Config
	// NodeFault schedules one node crash.
	NodeFault = fault.NodeFault
	// NodeFaultKind selects whether a scheduled node crashes (NodeCrash)
	// or is left alone (NodeOK).
	NodeFaultKind = fault.NodeFaultKind
	// MachineCheck is the structured unrecoverable-condition error that
	// Machine.RunUntilIdle and the experiment harnesses surface instead
	// of panicking (retry budget exhausted, FIFO overflow, ring
	// corruption).
	MachineCheck = fault.MachineCheck
	// FaultPoint is one fault-sweep measurement: goodput under loss
	// plus the recovery machinery's accounting.
	FaultPoint = core.FaultPoint
	// PeerDown is the failure detector's structured declaration that a
	// peer crashed (Survivable mode): who, when, and why.
	PeerDown = fault.PeerDown
	// AvailabilityPoint is one crash-survival measurement: survivor
	// goodput, teardown accounting, and the surviving-memory checksum.
	AvailabilityPoint = core.AvailabilityPoint
)

// ErrPeerDown is the sentinel matched (via errors.Is) by every error a
// Survivable-mode kernel or channel returns for a declared-dead peer.
var ErrPeerDown = fault.ErrPeerDown

// Node fault kinds.
const (
	// NodeOK schedules nothing.
	NodeOK = fault.NodeOK
	// NodeCrash kills the node at its scheduled time: the CPU halts and
	// the NIC bit-buckets all arriving traffic from then on.
	NodeCrash = fault.NodeCrash
)

// FaultSweep measures goodput across drop rates (ppm) with reliable
// delivery on, fanned across the deterministic worker pool.
func FaultSweep(cfg Config, dropsPPM []uint32, transferBytes, totalBytes, workers int) []FaultPoint {
	return core.FaultSweep(cfg, dropsPPM, transferBytes, totalBytes, workers)
}

// MeasureAvailability runs the crash-survival ring workload under the
// config's fault plan (Survivable mode) and reports survivor goodput
// and teardown accounting.
func MeasureAvailability(cfg Config, rounds, wordsPerRound int) AvailabilityPoint {
	return core.MeasureAvailability(New(cfg), rounds, wordsPerRound)
}

// AvailabilitySweep measures availability across crash counts with
// reliable delivery and Survivable mode forced on.
func AvailabilitySweep(cfg Config, crashes []int, crashBase, crashStagger Time,
	rounds, wordsPerRound, workers int) []AvailabilityPoint {
	return core.AvailabilitySweep(cfg, crashes, crashBase, crashStagger, rounds, wordsPerRound, workers)
}

// Assembly tooling (the simulated i386-subset used by the measured
// primitives; exposed for the shrimp-asm tool and power users).
type (
	// Program is an assembled ISA routine.
	Program = isa.Program
	// CPU is a node's processor.
	CPU = isa.CPU
)

// Assemble parses ISA assembly text with the given symbol table.
func Assemble(name, src string, syms map[string]int64) (*Program, error) {
	return isa.Assemble(name, src, syms)
}
