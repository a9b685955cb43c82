package isa

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// MemPort is the CPU's window onto the node: virtual-address loads and
// stores that go through translation, the cache, and the memory bus
// (where the network interface snoops them). The node glue in
// internal/core implements it.
type MemPort interface {
	Load(a vm.VAddr, size int) (uint32, sim.Time, *vm.Fault)
	Store(a vm.VAddr, v uint32, size int) (sim.Time, *vm.Fault)
	// CmpxchgLocked performs the LOCK CMPXCHG bus protocol of §4.3:
	// a locked read cycle followed by a write cycle iff the read value
	// equals expect.
	CmpxchgLocked(a vm.VAddr, expect, repl uint32) (read uint32, swapped bool, lat sim.Time, fault *vm.Fault)
}

// ReturnSentinel is the return address the harness pushes before starting
// a routine; RET to it halts the CPU cleanly.
const ReturnSentinel uint32 = 0xffff_fff0

// FaultAction tells the CPU what to do after a translation fault.
type FaultAction uint8

const (
	// FaultAbort halts the CPU and records the fault as its error.
	FaultAbort FaultAction = iota
	// FaultRetry re-executes the faulting instruction (possibly after
	// the handler froze the CPU while it repaired the mapping).
	FaultRetry
)

// Config holds CPU timing parameters.
type Config struct {
	CycleTime sim.Time // base cost per instruction
	TrapCost  sim.Time // extra cost of INT, IRET and IRQ entry
	// TakenBranchCycles is the extra cycles a taken jump/loop pays
	// (pipeline refill); not-taken branches cost the base cycle only.
	TakenBranchCycles int
	// CallRetCycles is the extra cycles of CALL and RET beyond their
	// stack memory traffic.
	CallRetCycles int
	// StringIterCycles is the extra cycles per string-op iteration
	// beyond its memory traffic.
	StringIterCycles int
	// MaxBatch is the CPU's one execution field. Values <= 1 select
	// per-instruction stepping: one engine event per instruction, the
	// reference interpreter every differential test compares against.
	// Values > 1 select the shipping path, which retires up to MaxBatch
	// instructions inside one engine event: the CPU runs ahead on the
	// engine clock between hazard boundaries (pending event, fault,
	// halt, freeze, quantum), dispatches straight-line runs through the
	// superblock trace cache and fused terminators (tracecache.go). All
	// of it is a pure simulator optimization: simulated results are
	// bit-identical at any setting — the differential tests in
	// internal/isa, internal/core and internal/msg pin this.
	MaxBatch int
}

// DefaultConfig models a 66 MHz i486-class CPU: one cycle per simple
// instruction, two extra on taken branches, two extra on call/ret, one
// extra per string iteration.
func DefaultConfig() Config {
	return Config{
		CycleTime:         15 * sim.Nanosecond,
		TrapCost:          300 * sim.Nanosecond,
		TakenBranchCycles: 2,
		CallRetCycles:     2,
		StringIterCycles:  1,
		MaxBatch:          64,
	}
}

// Counters are the measurement outputs of a run. Instructions executed in
// kernel mode (between INT/IRQ entry and IRET) count separately, and REP
// string iterations after the first are excluded from both — the paper
// excludes "per-byte copying costs" from its overhead figures.
type Counters struct {
	User     uint64
	Kernel   uint64
	RepIters uint64
	Traps    uint64
	IRQs     uint64
	Faults   uint64
}

// Total returns user + kernel instruction counts.
func (c Counters) Total() uint64 { return c.User + c.Kernel }

// CPU is one node's processor: an interpreter for assembled Programs
// that advances the shared simulation clock as it executes.
type CPU struct {
	Eng *sim.Engine
	Mem MemPort

	// R holds the eight general-purpose registers.
	R [8]uint32
	// Flags.
	ZF, SF, CF, OF, DF bool

	// Syscall handles INT vectors with no ISA handler installed.
	Syscall func(c *CPU, vector int)
	// FaultHandler decides what happens on a translation fault. Nil
	// means every fault aborts.
	FaultHandler func(c *CPU, f *vm.Fault) FaultAction
	// OnHalt fires when the CPU halts (HLT, sentinel RET, or abort).
	OnHalt func(c *CPU)

	cfg        Config
	prog       *Program
	eip        int
	kernelMode bool
	halted     bool
	frozen     bool
	started    bool
	repActive  bool // inside a REP sequence (iterations beyond the first)
	err        error
	isrs       map[int]int // vector -> instruction index
	goIRQ      map[int]func(c *CPU)
	pendingIRQ []int
	counters   Counters
	name       string
	scope      *obs.NodeScope // nil when metrics are disabled

	// Superblock trace cache (tracecache.go).
	traces map[*Program]*progTrace
	cur    *progTrace // trace for the loaded program, resolved lazily
}

// NewCPU builds a CPU over the given memory port.
func NewCPU(eng *sim.Engine, cfg Config, mem MemPort) *CPU {
	return &CPU{Eng: eng, Mem: mem, cfg: cfg, isrs: make(map[int]int), goIRQ: make(map[int]func(*CPU))}
}

// SetName labels the CPU in diagnostics.
func (c *CPU) SetName(n string) { c.name = n }

// SetObs attaches the node's metrics scope (nil detaches). The CPU
// records batch lengths and hazard-break reasons; recording never
// changes simulated results.
func (c *CPU) SetObs(s *obs.NodeScope) { c.scope = s }

// InstallISR routes an interrupt/trap vector to an ISA handler label in
// the currently loaded program.
func (c *CPU) InstallISR(vector int, label string) {
	c.isrs[vector] = c.prog.MustEntry(label)
}

// InstallGoIRQ routes a hardware interrupt vector to a Go handler (used
// for kernel services that are not part of any measured fast path).
func (c *CPU) InstallGoIRQ(vector int, fn func(c *CPU)) { c.goIRQ[vector] = fn }

// Counters returns the current measurement counters.
func (c *CPU) Counters() Counters { return c.counters }

// ResetCounters zeroes the measurement counters.
func (c *CPU) ResetCounters() { c.counters = Counters{} }

// Halted reports whether the CPU has stopped.
func (c *CPU) Halted() bool { return c.halted }

// Err returns the error that aborted the CPU, if any.
func (c *CPU) Err() error { return c.err }

// Program returns the loaded program.
func (c *CPU) Program() *Program { return c.prog }

// EIP returns the current instruction index (diagnostics).
func (c *CPU) EIP() int { return c.eip }

// KernelMode reports whether the CPU is inside a trap/IRQ handler.
func (c *CPU) KernelMode() bool { return c.kernelMode }

// Reset returns the CPU to its just-built state: zeroed registers and
// flags, no program, no pending interrupts, zeroed counters. The memory
// port and the FaultHandler wired up at machine construction persist;
// harness-installed Syscall and OnHalt hooks are cleared. The caller is
// responsible for the engine: a started CPU has a step event pending.
func (c *CPU) Reset() {
	c.R = [8]uint32{}
	c.ZF, c.SF, c.CF, c.OF, c.DF = false, false, false, false, false
	c.Syscall = nil
	c.OnHalt = nil
	c.prog = nil
	c.eip = 0
	c.kernelMode = false
	c.halted = false
	c.frozen = false
	c.started = false
	c.repActive = false
	c.err = nil
	clear(c.isrs)
	clear(c.goIRQ)
	c.pendingIRQ = c.pendingIRQ[:0]
	c.counters = Counters{}
	c.FlushTraces()
}

// Load installs a program without starting execution. Built
// superblocks for previously loaded programs are retained (keyed by
// *Program identity), so reloading a cached program reuses its trace.
func (c *CPU) Load(p *Program) {
	c.prog = p
	if c.isrs == nil {
		c.isrs = make(map[int]int)
	} else {
		clear(c.isrs)
	}
	c.cur = nil
}

// Start begins executing the loaded program at the given label. The
// caller should have set up ESP; Start pushes ReturnSentinel so the
// routine may finish with RET.
func (c *CPU) Start(entry string) error {
	if c.prog == nil {
		return fmt.Errorf("isa: no program loaded")
	}
	e, err := c.prog.Entry(entry)
	if err != nil {
		return err
	}
	c.eip = e
	c.halted, c.frozen, c.started, c.err = false, false, true, nil
	c.kernelMode = false
	c.repActive = false
	if _, f := c.push(ReturnSentinel); f != nil {
		return fmt.Errorf("isa: cannot push return sentinel: %w", f)
	}
	c.Eng.ScheduleAfter(0, c)
	return nil
}

// Freeze pauses execution after the current instruction; the kernel uses
// it while a fault repair or FIFO drain is outstanding.
func (c *CPU) Freeze() { c.frozen = true }

// Thaw resumes a frozen CPU.
func (c *CPU) Thaw() {
	if !c.frozen {
		return
	}
	c.frozen = false
	if c.started && !c.halted {
		c.Eng.ScheduleAfter(0, c)
	}
}

// Frozen reports whether the CPU is paused.
func (c *CPU) Frozen() bool { return c.frozen }

// RaiseIRQ queues a hardware interrupt; it dispatches before the next
// user-mode instruction.
func (c *CPU) RaiseIRQ(vector int) {
	c.pendingIRQ = append(c.pendingIRQ, vector)
	if c.started && !c.halted && !c.frozen {
		// Ensure a step is pending even if the CPU idles at a HLT-less
		// boundary (it always is while started, so this is belt and
		// braces for Go-handler reentry).
		c.Eng.ScheduleAfter(0, nopWake)
	}
}

// nopEvent is the shared do-nothing wake event RaiseIRQ schedules; a
// zero-size value converts to sim.Handler without allocating.
type nopEvent struct{}

func (nopEvent) Fire() {}

var nopWake sim.Handler = nopEvent{}

func (c *CPU) halt() {
	c.halted = true
	if c.OnHalt != nil {
		c.OnHalt(c)
	}
}

func (c *CPU) abort(err error) {
	c.err = err
	c.halt()
}

// Fire implements sim.Handler: the CPU itself is the schedulable step
// event, so advancing execution never allocates a closure.
func (c *CPU) Fire() { c.step() }

// step executes up to Config.MaxBatch instructions inside one engine
// event. The "local clock" the CPU runs ahead on IS the engine clock,
// advanced inline (Engine.AdvanceTo) between instructions: every memory,
// bus and NIC interaction reads Engine.Now synchronously, so arbitration,
// snoop timing and latencies are bit-identical to per-instruction
// stepping by construction. The batch yields back to the event loop at
// hazard boundaries:
//
//   - a pending engine event (or the edge of a RunUntil window) inside
//     the next instruction's time slot — the event may change anything
//     the CPU observes, so it must fire first;
//   - a translation fault (the retry reschedules, as before);
//   - HLT, sentinel RET, or abort;
//   - a freeze (Thaw reschedules);
//   - the MaxBatch quantum.
//
// Yielding schedules the CPU at the exact timestamp the next instruction
// would have started, before any intervening event fires, so the (at,
// seq) event order matches per-instruction stepping event for event.
func (c *CPU) step() {
	if c.halted || c.frozen || !c.started {
		return
	}
	quantum := c.cfg.MaxBatch
	if quantum < 1 {
		quantum = 1
	}
	// Resolve the loaded program's trace once per event; the batch loop
	// then dispatches over superblocks. Trace dispatch needs run-ahead
	// (quantum > 1): per-instruction stepping stays the untouched
	// reference path.
	var tr *progTrace
	if quantum > 1 {
		tr = c.cur
		if tr == nil || tr.prog != c.prog {
			tr = c.traceFor(c.prog)
			c.cur = tr
		}
	}
	batched := 0
	for {
		// Hardware interrupts dispatch at instruction boundaries, outside
		// handlers.
		if len(c.pendingIRQ) > 0 && !c.kernelMode {
			v := c.pendingIRQ[0]
			c.pendingIRQ = c.pendingIRQ[1:]
			c.dispatchIRQ(v)
			if c.halted {
				c.endBatch(batched, obs.CtrBatchBreakHalt)
				return
			}
			if c.frozen {
				c.endBatch(batched, obs.CtrBatchBreakFreeze)
				return
			}
		}
		if c.eip < 0 || c.eip >= len(c.prog.Instrs) {
			c.abort(fmt.Errorf("isa: %s: eip %d outside program %q", c.name, c.eip, c.prog.Name))
			c.endBatch(batched, obs.CtrBatchBreakHalt)
			return
		}
		var blk *sblock
		if tr != nil {
			blk = c.block(tr, c.eip)
			// Pure-run dispatch: the whole run fits inside the quantum
			// and completes strictly before the next event and the run
			// bound — the same hazard conditions the literal loop tests
			// per instruction, evaluated once (every intermediate
			// completion time is below end, so one comparison subsumes
			// them all). Pure micro-ops touch nothing but registers and
			// flags, so no event, IRQ, fault, halt or freeze can appear
			// mid-run.
			if n := len(blk.pure); n > 0 && batched+n < quantum {
				end := c.Eng.Now() + blk.pureCost
				if end < c.Eng.NextEventAt() && end <= c.Eng.RunBound() {
					c.runPure(blk.pure)
					if c.kernelMode {
						c.counters.Kernel += uint64(n)
					} else {
						c.counters.User += uint64(n)
					}
					batched += n
					c.Eng.AdvanceTo(end)
					c.eip = blk.end
					if c.eip >= len(c.prog.Instrs) {
						continue // bounds abort at the loop top
					}
				}
			}
		}
		// Terminator dispatch: blk's fs/jcc describe the instruction at
		// blk.end, which is the current eip both when the pure run just
		// retired and when the block has no pure prefix.
		in := &c.prog.Instrs[c.eip]
		var cost sim.Time
		var fault *vm.Fault
		switch {
		case blk != nil && blk.end == c.eip && blk.fs.ok:
			cost, fault = c.execFastStore(&blk.fs)
		case blk != nil && blk.end == c.eip && blk.jcc.ok:
			cost = c.execFastJcc(&blk.jcc)
		default:
			cost, fault = c.execute(in)
		}
		if fault != nil {
			c.counters.Faults++
			action := FaultAbort
			if c.FaultHandler != nil {
				action = c.FaultHandler(c, fault)
			}
			if action == FaultAbort {
				c.abort(fmt.Errorf("isa: %s at %q#%d (%s): %w", c.name, c.prog.Name, c.eip, in, fault))
				c.endBatch(batched, obs.CtrBatchBreakHalt)
				return
			}
			// Retry: eip unchanged; the handler may have frozen us.
			if !c.halted && !c.frozen {
				c.Eng.ScheduleAfter(c.cfg.CycleTime, c)
			}
			c.endBatch(batched, obs.CtrBatchBreakFault)
			return
		}
		batched++
		if c.halted {
			c.endBatch(batched, obs.CtrBatchBreakHalt)
			return
		}
		if c.frozen {
			c.endBatch(batched, obs.CtrBatchBreakFreeze)
			return
		}
		if batched >= quantum {
			c.Eng.ScheduleAfter(cost, c)
			c.endBatch(batched, obs.CtrBatchBreakQuantum)
			return
		}
		next := c.Eng.Now() + cost
		if c.Eng.NextEventAt() <= next || next > c.Eng.RunBound() {
			c.Eng.ScheduleAfter(cost, c)
			c.endBatch(batched, obs.CtrBatchBreakEvent)
			return
		}
		c.Eng.AdvanceTo(next)
	}
}

// endBatch records one batch's telemetry at its yield point; nil-scope
// safe and allocation-free.
func (c *CPU) endBatch(n int, why obs.Counter) {
	c.scope.Observe(obs.HistBatchLen, uint64(n))
	c.scope.Inc(why)
}

func (c *CPU) dispatchIRQ(vector int) {
	c.counters.IRQs++
	if fn, ok := c.goIRQ[vector]; ok {
		fn(c)
		return
	}
	target, ok := c.isrs[vector]
	if !ok {
		c.abort(fmt.Errorf("isa: %s: unhandled IRQ %d", c.name, vector))
		return
	}
	if _, f := c.push(uint32(c.eip)); f != nil {
		c.abort(fmt.Errorf("isa: %s: IRQ stack push: %w", c.name, f))
		return
	}
	c.kernelMode = true
	c.eip = target
}

// count records one successfully executed instruction.
func (c *CPU) count(rep bool) {
	if rep && c.repActive {
		c.counters.RepIters++
		return
	}
	if c.kernelMode {
		c.counters.Kernel++
	} else {
		c.counters.User++
	}
}
