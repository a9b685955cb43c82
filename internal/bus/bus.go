// Package bus models the two buses of a SHRIMP node (paper §3):
//
//   - the Xpress memory bus, which connects CPU, DRAM and the I/O bridge
//     and which the network interface snoops through the memory extension
//     connector — every write transaction is visible to registered
//     snoopers, which is how automatic update works;
//   - the EISA expansion bus, over which the prototype network interface
//     DMA-transfers incoming data to main memory at a burst-mode peak of
//     33 Mbytes/second — the bandwidth bottleneck of the whole system.
//
// Both buses are single-tenancy timed resources: each transaction
// occupies the bus for a duration derived from its size, and back-to-back
// transactions serialize. Memory side effects happen eagerly (the DES is
// single-threaded and components observe memory only through bus
// transactions), while the returned completion time carries the cost.
package bus

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Initiator identifies which agent mastered a bus transaction. Snoopers
// use it to tell CPU stores (forwarded by the NIC if mapped out) from DMA
// traffic (invalidated by the cache, ignored by the NIC's outgoing path).
type Initiator uint8

const (
	// InitCPU marks transactions issued by the node's processor.
	InitCPU Initiator = iota
	// InitNIC marks transactions mastered by the network interface
	// (deliberate-update DMA reads, next-generation incoming deposits).
	InitNIC
	// InitBridge marks transactions from the EISA-to-Xpress bridge
	// (prototype incoming DMA deposits).
	InitBridge
)

func (i Initiator) String() string {
	switch i {
	case InitCPU:
		return "cpu"
	case InitNIC:
		return "nic"
	case InitBridge:
		return "bridge"
	}
	return fmt.Sprintf("Initiator(%d)", uint8(i))
}

// Snooper observes write transactions on the Xpress bus.
type Snooper interface {
	SnoopWrite(init Initiator, a phys.PAddr, data []byte)
}

// RunSnooper is an optional Snooper capability that lets a run of
// consecutive CPU word writes land in one pass (Xpress.WriteRun). A
// snooper that lacks it leaves every run empty, so CPU writes keep going
// through Write one at a time.
type RunSnooper interface {
	Snooper
	// SnoopRoom returns how many of up to words consecutive 4-byte CPU
	// writes from a (DRAM, within a's page), issued back to back before
	// the next pending engine event, the snooper would take exactly as
	// one SnoopWrite each without scheduling an event.
	SnoopRoom(a phys.PAddr, words int) int
	// SnoopRun has the effect of one SnoopWrite per 4-byte word of data,
	// in address order, the last issued at last. The run lies within
	// the room SnoopRoom reported.
	SnoopRun(a phys.PAddr, data []byte, last sim.Time)
}

// CommandTarget decodes accesses to the NIC command address space
// (paper §4.2). Command reads and writes are bus transactions that no
// RAM responds to; the network interface claims them.
type CommandTarget interface {
	// CmdRead returns the NIC's response to a read of command address a.
	CmdRead(a phys.PAddr) uint32
	// CmdWrite delivers a write of v to command address a. It reports
	// whether the NIC accepted the command.
	CmdWrite(a phys.PAddr, v uint32) bool
}

// XpressConfig holds the memory bus timing parameters.
type XpressConfig struct {
	Arbitration sim.Time // per-transaction arbitration/overhead
	WordTime    sim.Time // per-8-byte beat
}

// DefaultXpressConfig approximates a ~266 MB/s Xpress bus: 30 ns per
// 8-byte beat plus 30 ns arbitration.
func DefaultXpressConfig() XpressConfig {
	return XpressConfig{Arbitration: 30 * sim.Nanosecond, WordTime: 30 * sim.Nanosecond}
}

// XpressStats aggregates memory bus activity.
type XpressStats struct {
	Reads, Writes uint64
	CmdReads      uint64
	CmdWrites     uint64
	BytesRead     uint64
	BytesWritten  uint64
	// SnoopsFiltered counts CPU writes that skipped the snooper fan-out
	// because the snoop filter reported no interested snooper (see
	// SetSnoopFilter).
	SnoopsFiltered uint64
	ContentionWait sim.Time
	BusyTime       sim.Time
}

// SnoopFilter decides, for a CPU-initiated write to a physical address,
// whether any registered snooper could care. The NIC installs a
// page-granular filter (does the NIPT map this page out?) so the common
// case — stores to private pages — skips the snooper fan-out entirely.
// The filter is consulted live on every write, never cached, so direct
// NIPT entry mutations need no invalidation hook. Only CPU-initiated
// writes are filtered: DMA traffic must always reach the cache's
// invalidation port.
type SnoopFilter func(a phys.PAddr) bool

// Xpress is one node's memory bus.
type Xpress struct {
	eng      *sim.Engine
	cfg      XpressConfig
	mem      *phys.Memory
	snoopers []Snooper
	runners  []RunSnooper // snoopers[i]'s run capability, nil if it has none
	cmd      CommandTarget
	filter   SnoopFilter
	busyTill sim.Time
	stats    XpressStats
	scope    *obs.NodeScope // nil when metrics are disabled
	scratch  [4]byte        // Write32/Read32/cmd-read staging; consumers copy synchronously
}

// NewXpress builds the memory bus over the given DRAM.
func NewXpress(eng *sim.Engine, cfg XpressConfig, mem *phys.Memory) *Xpress {
	return &Xpress{eng: eng, cfg: cfg, mem: mem}
}

// AddSnooper registers a bus snooper (the NIC, the cache's invalidation
// port). Registration order is the notification order.
func (x *Xpress) AddSnooper(s Snooper) {
	x.snoopers = append(x.snoopers, s)
	r, _ := s.(RunSnooper)
	x.runners = append(x.runners, r)
}

// SetCommandTarget registers the decoder for the command address space.
func (x *Xpress) SetCommandTarget(t CommandTarget) { x.cmd = t }

// SetSnoopFilter installs the CPU-write snoop filter (nil removes it:
// every write fans out, the conservative default).
func (x *Xpress) SetSnoopFilter(f SnoopFilter) { x.filter = f }

// SetObs attaches the node's metrics scope (nil detaches).
func (x *Xpress) SetObs(s *obs.NodeScope) { x.scope = s }

// Memory returns the DRAM behind the bus.
func (x *Xpress) Memory() *phys.Memory { return x.mem }

// Stats returns a snapshot of bus statistics.
func (x *Xpress) Stats() XpressStats { return x.stats }

// BusyUntil returns the time at which all issued transactions complete.
// The cache's posted-write (write buffer) model uses it to decide when
// the CPU must stall behind its own store traffic.
func (x *Xpress) BusyUntil() sim.Time { return x.busyTill }

// Reset returns the bus to its just-built state: idle, zeroed
// statistics. Registered snoopers and the command target persist — they
// are wiring, not state.
func (x *Xpress) Reset() {
	x.busyTill = 0
	x.stats = XpressStats{}
}

// cost returns the tenure duration for an n-byte transaction.
func (x *Xpress) cost(n int) sim.Time {
	beats := sim.Time((n + 7) / 8)
	if beats == 0 {
		beats = 1
	}
	return x.cfg.Arbitration + beats*x.cfg.WordTime
}

// acquire serializes a transaction of the given size behind current bus
// traffic, returning its completion time.
func (x *Xpress) acquire(n int) sim.Time {
	start := x.eng.Now()
	x.scope.Inc(obs.CtrBusTxns)
	if x.busyTill > start {
		x.stats.ContentionWait += x.busyTill - start
		x.scope.Add(obs.CtrBusWaitPs, uint64(x.busyTill-start))
		start = x.busyTill
	}
	d := x.cost(n)
	x.busyTill = start + d
	x.stats.BusyTime += d
	return x.busyTill
}

// WordTenure returns how long one 4-byte write holds the bus.
func (x *Xpress) WordTenure() sim.Time { return x.cost(4) }

// RunRoom returns how many of up to words consecutive 4-byte CPU writes
// from a (DRAM, 4-byte aligned, within a's page), issued back to back
// before the next pending engine event, can land through WriteRun:
// every word when the snoop filter passes over a's page, and otherwise
// the least room any snooper reports, none when one of them is not a
// RunSnooper. The filter is page-granular, so one check covers the run.
func (x *Xpress) RunRoom(a phys.PAddr, words int) int {
	if x.filter != nil && !x.filter(a) {
		return words
	}
	for _, r := range x.runners {
		if r == nil {
			return 0
		}
		words = min(words, r.SnoopRoom(a, words))
	}
	return words
}

// WriteRun has exactly the effect of one Write(InitCPU, ...) per 4-byte
// word of data, in address order, for a run within RunRoom whose timing
// the caller worked out word by word: the last word issued
// at last, the words waited wait for the bus in total, and the last one
// holds it until busyTill. Statistics and obs counters land in bulk,
// DRAM takes one copy, and the snoopers one SnoopRun each.
func (x *Xpress) WriteRun(a phys.PAddr, data []byte, last, wait, busyTill sim.Time) {
	n := uint64(len(data) / 4)
	x.scope.Add(obs.CtrBusTxns, n)
	if wait > 0 {
		x.stats.ContentionWait += wait
		x.scope.Add(obs.CtrBusWaitPs, uint64(wait))
	}
	x.busyTill = busyTill
	x.stats.BusyTime += sim.Time(n) * x.cost(4)
	x.stats.Writes += n
	x.stats.BytesWritten += uint64(len(data))
	x.mem.Write(a, data)
	if x.filter != nil && !x.filter(a) {
		x.stats.SnoopsFiltered += n
		x.scope.Add(obs.CtrSnoopsFiltered, n)
		return
	}
	for _, r := range x.runners {
		r.SnoopRun(a, data, last)
	}
}

// Write performs a write transaction: DRAM is updated and all snoopers
// observe it. Writes to the command space are routed to the command
// target instead (only 32-bit command writes are meaningful).
func (x *Xpress) Write(init Initiator, a phys.PAddr, data []byte) (done sim.Time) {
	done = x.acquire(len(data))
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command write %#x with no command target", uint32(a)))
		}
		x.stats.CmdWrites++
		var v uint32
		for i := 0; i < len(data) && i < 4; i++ {
			v |= uint32(data[i]) << (8 * i)
		}
		x.cmd.CmdWrite(a, v)
		return done
	}
	x.stats.Writes++
	x.stats.BytesWritten += uint64(len(data))
	x.mem.Write(a, data)
	if init == InitCPU && x.filter != nil && !x.filter(a) {
		x.stats.SnoopsFiltered++
		x.scope.Inc(obs.CtrSnoopsFiltered)
		return done
	}
	for _, s := range x.snoopers {
		s.SnoopWrite(init, a, data)
	}
	return done
}

// Write32 is a convenience 32-bit Write. The payload is staged in the
// bus-owned scratch buffer (snoopers copy write data synchronously and
// never retain the slice), so it allocates nothing.
func (x *Xpress) Write32(init Initiator, a phys.PAddr, v uint32) sim.Time {
	return x.Write(init, a, x.leBytes(v))
}

// Read performs a read transaction of n bytes at a. Command-space reads
// return a view of the bus-owned scratch buffer, valid until the next
// transaction; callers consume read data synchronously.
func (x *Xpress) Read(init Initiator, a phys.PAddr, n int) (data []byte, done sim.Time) {
	done = x.acquire(n)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command read %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		return x.leBytes(x.cmd.CmdRead(a))[:min(n, 4)], done
	}
	x.stats.Reads++
	x.stats.BytesRead += uint64(n)
	return x.mem.Read(a, n), done
}

// ReadInto performs a read transaction of len(dst) bytes at a, copying
// into dst: the allocation-free twin of Read for DMA engines that reuse a
// scratch buffer. The command address space is not readable through this
// path.
func (x *Xpress) ReadInto(init Initiator, a phys.PAddr, dst []byte) (done sim.Time) {
	done = x.acquire(len(dst))
	if x.mem.IsCmd(a) {
		panic(fmt.Sprintf("bus: ReadInto of command address %#x", uint32(a)))
	}
	x.stats.Reads++
	x.stats.BytesRead += uint64(len(dst))
	x.mem.ReadInto(a, dst)
	return done
}

// Read32 is a convenience 32-bit Read; it bypasses the slice-returning
// path entirely, so 4-byte kernel/NIC/cache reads allocate nothing.
func (x *Xpress) Read32(init Initiator, a phys.PAddr) (uint32, sim.Time) {
	done := x.acquire(4)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: command read %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		return x.cmd.CmdRead(a), done
	}
	x.stats.Reads++
	x.stats.BytesRead += 4
	return x.mem.Read32(a), done
}

// LockedCmpxchg performs the locked compare-and-exchange bus sequence of
// §4.3: a read cycle, then — iff the read value equals expect — a write
// cycle, all in one bus tenure. It reports the value returned by the read
// cycle and whether the write cycle was generated.
func (x *Xpress) LockedCmpxchg(init Initiator, a phys.PAddr, expect, repl uint32) (read uint32, swapped bool, done sim.Time) {
	// One tenure covering both cycles (LOCK holds the bus).
	done = x.acquire(8)
	if x.mem.IsCmd(a) {
		if x.cmd == nil {
			panic(fmt.Sprintf("bus: locked cmpxchg %#x with no command target", uint32(a)))
		}
		x.stats.CmdReads++
		read = x.cmd.CmdRead(a)
		if read == expect {
			x.stats.CmdWrites++
			if x.cmd.CmdWrite(a, repl) {
				swapped = true
			}
		}
		return read, swapped, done
	}
	x.stats.Reads++
	read = x.mem.Read32(a)
	if read == expect {
		x.stats.Writes++
		x.mem.Write32(a, repl)
		if init == InitCPU && x.filter != nil && !x.filter(a) {
			x.stats.SnoopsFiltered++
			x.scope.Inc(obs.CtrSnoopsFiltered)
		} else {
			for _, s := range x.snoopers {
				s.SnoopWrite(init, a, x.leBytes(repl))
			}
		}
		swapped = true
	}
	return read, swapped, done
}

// leBytes stages v little-endian in the bus-owned scratch buffer. Bus
// consumers copy read/write data synchronously and never retain the
// slice, so reusing one buffer per bus is safe.
func (x *Xpress) leBytes(v uint32) []byte {
	x.scratch[0] = byte(v)
	x.scratch[1] = byte(v >> 8)
	x.scratch[2] = byte(v >> 16)
	x.scratch[3] = byte(v >> 24)
	return x.scratch[:4]
}
