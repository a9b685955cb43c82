// Package fault is the machine-wide deterministic fault-injection
// subsystem. A Config (carried on core.Config.Faults) describes which
// faults a run should experience — packet drop and corrupt rates on the
// mesh and scheduled node crashes — and an Injector turns the rates
// into per-packet decisions that are a pure function of (seed, node,
// stream, per-stream count, decision-time clock). No wall-clock time
// and no global math/rand state is ever consulted, so a given seed
// reproduces the exact same fault pattern on every run, after
// Machine.Reset, and across parallel sweep workers.
//
// The companion reliable-delivery layer (internal/nic/reliable.go) and
// the structured MachineCheck error (machinecheck.go) are what let a
// simulation survive — or deterministically refuse to survive — the
// injected faults.
package fault

import (
	"repro/internal/sim"
)

// NodeFaultKind selects what happens to a scheduled node.
type NodeFaultKind uint8

const (
	// NodeOK is the zero value: no fault scheduled.
	NodeOK NodeFaultKind = iota
	// NodeCrash permanently kills the node at At: its CPU freezes and
	// its NIC becomes a bit bucket (arriving packets are discarded, no
	// ACKs are generated). Peers talking to it exhaust their retry
	// budgets and raise a MachineCheck naming the dead destination.
	NodeCrash
)

func (k NodeFaultKind) String() string {
	if k == NodeCrash {
		return "crash"
	}
	return "ok"
}

// NodeFault schedules one node-level fault.
type NodeFault struct {
	Node int
	Kind NodeFaultKind
	At   sim.Time
}

// Config describes the faults of one run. The zero value means "no
// fault subsystem at all" — the machine is bit-identical to one built
// before this package existed. It is a plain comparable struct (no
// slices or maps) so core.Config stays ==-comparable for the sweep
// harnesses' machine-reuse pools.
type Config struct {
	// Seed keys the split-mix decision hash. Two runs with equal
	// Config are bit-identical; changing only Seed reshuffles which
	// packets are hit while keeping the rates.
	Seed uint64

	// Per-million packet fault rates, rolled at mesh injection time.
	DropPPM    uint32 // packet vanishes in flight (wire traffic still paid)
	CorruptPPM uint32 // packet arrives damaged; the receiver's CRC check drops it

	// Reliable enables the NIC-level reliable-delivery layer:
	// deliberate-update and kernel-ring packets gain sequence numbers,
	// receiver ACK/NACK, sender retransmit with capped exponential
	// backoff, and kernel ring records gain a CRC word; automatic-update
	// packets gain per-page sequence tags for drop detection. Turning it
	// on changes the wire format (+RelHeaderBytes per packet), so it is
	// not bit-identical to the zero config even with all rates zero.
	Reliable bool
	// RetryBudget is the number of consecutive no-progress retransmits
	// before the sender raises a MachineCheck (0 selects
	// DefaultRetryBudget).
	RetryBudget int
	// AckTimeout is the base retransmit timeout; backoff doubles it per
	// consecutive retry, capped at MaxBackoff× the base (0 selects
	// DefaultAckTimeout).
	AckTimeout sim.Time

	// Survivable converts reliable-delivery retry-budget exhaustion
	// from a terminal MachineCheck into a structured PeerDown event:
	// the sender's NIC quarantines the flow (retained payloads freed,
	// RTO timers disarmed), the kernel tears down every mapping to and
	// from the declared-dead peer, and the survivors keep running. Off
	// (the default) preserves the fail-stop semantics bit-identically.
	// Requires Reliable.
	Survivable bool
	// Heartbeat, when positive, is the period of the kernels' liveness
	// sweep in Survivable mode: each node periodically sends a tiny
	// ping record to every peer it still believes alive, so a crashed
	// node is detected within one retry budget even by nodes whose
	// workload never targets it. The sweep runs only while the fault
	// plan schedules node crashes that are not yet detected, so an
	// otherwise-idle machine still quiesces. Requires Survivable.
	Heartbeat sim.Time

	// Nodes schedules up to two node crashes (a fixed-size array keeps
	// Config comparable).
	Nodes [2]NodeFault
}

// Defaults for the tunables left zero in Config.
const (
	DefaultRetryBudget = 16
	DefaultAckTimeout  = 50 * sim.Microsecond
	// MaxBackoff caps the exponential backoff multiplier.
	MaxBackoff = 16
	// AckEvery is the receiver's cumulative-ACK batching: one ACK per
	// this many in-order data packets (a delayed ACK covers stragglers).
	AckEvery = 4
	// AckDelay is the receiver's delayed-ACK timer.
	AckDelay = 2 * sim.Microsecond
)

// Enabled reports whether any part of the fault subsystem is active.
// With a zero Config no injector is built and every hook stays nil, so
// the simulation is bit-identical to one without this package.
func (c Config) Enabled() bool { return c != Config{} }

// RetryBudgetOrDefault resolves the retry budget.
func (c Config) RetryBudgetOrDefault() int {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return DefaultRetryBudget
}

// AckTimeoutOrDefault resolves the base retransmit timeout.
func (c Config) AckTimeoutOrDefault() sim.Time {
	if c.AckTimeout > 0 {
		return c.AckTimeout
	}
	return DefaultAckTimeout
}

// Decision streams. Each (node, stream) pair owns an independent
// counter, and the stream number is part of the hash key, so the drop
// and corrupt decisions never perturb each other.
const (
	streamDrop = iota
	streamCorrupt
	numStreams
)

// Injector turns a Config into per-event decisions. The zero-rate
// streams never fire, and a nil *Injector is valid everywhere (all
// methods are nil-safe and report "no fault"), so components hold an
// *Injector unconditionally and pay one nil/zero check on hot paths.
type Injector struct {
	cfg    Config
	counts [][numStreams]uint64 // per-node decision counters
}

// NewInjector builds an injector for a machine of nodes nodes.
func NewInjector(cfg Config, nodes int) *Injector {
	return &Injector{cfg: cfg, counts: make([][numStreams]uint64, nodes)}
}

// Config returns the injector's configuration; nil-safe (zero Config).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Reliable reports whether the reliable-delivery layer is on; nil-safe.
func (i *Injector) Reliable() bool { return i != nil && i.cfg.Reliable }

// Reset clears every decision counter, returning the injector to its
// just-built state so a Reset machine replays the identical fault
// pattern; nil-safe.
func (i *Injector) Reset() {
	if i == nil {
		return
	}
	clear(i.counts)
}

// splitmix is the split-mix-64 finalizer: a bijective avalanche over
// the packed decision key.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws one decision for (node, stream) at simulated time now:
// true with probability ppm/1e6. The hash key mixes the seed, node,
// stream, that stream's per-node counter, and the caller's clock —
// deterministic state only.
func (i *Injector) roll(node, stream int, ppm uint32, now sim.Time) bool {
	if i == nil || ppm == 0 {
		return false
	}
	c := &i.counts[node][stream]
	*c++
	h := splitmix(i.cfg.Seed ^ uint64(node)<<48 ^ uint64(stream)<<40 ^ *c)
	h = splitmix(h ^ uint64(now))
	return h%1_000_000 < uint64(ppm)
}

// DropPacket decides whether a packet injected by node at time now is
// lost in flight; nil-safe.
func (i *Injector) DropPacket(node int, now sim.Time) bool {
	return i.roll(node, streamDrop, i.configDrop(), now)
}

// CorruptPacket decides whether a packet injected by node at time now
// arrives damaged; nil-safe.
func (i *Injector) CorruptPacket(node int, now sim.Time) bool {
	return i.roll(node, streamCorrupt, i.configCorrupt(), now)
}

// The config accessors below keep roll's nil check the only one on the
// hot path.
func (i *Injector) configDrop() uint32 {
	if i == nil {
		return 0
	}
	return i.cfg.DropPPM
}

func (i *Injector) configCorrupt() uint32 {
	if i == nil {
		return 0
	}
	return i.cfg.CorruptPPM
}
