package kernel

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Multiprogramming support. The SHRIMP design point is that user-level
// communication stays protected under *any* scheduling policy: mappings
// are between physical pages, so a context switch "does not require any
// action on the part of the network interface" (Figure 3). The
// round-robin scheduler here exists to demonstrate exactly that.

type scheduler struct {
	runq    []*Process
	current *Process
	slice   sim.Time
	active  bool
}

// Current returns the process whose address space is loaded.
func (k *Kernel) Current() *Process { return k.sched.current }

// BindProcess makes p the current process without scheduling: the
// harness uses it to run a single program directly.
func (k *Kernel) BindProcess(p *Process) {
	k.sched.current = p
	if k.box != nil {
		k.box.CurrentAS = p.AS
	}
}

// SetupRun stages a program for a process: it will start at entry with
// the stack top at stackTop when first scheduled.
func (p *Process) SetupRun(prog *isa.Program, entry string, stackTop vm.VAddr) {
	p.prog = prog
	p.entry = entry
	p.regs[isa.ESP] = uint32(stackTop)
	p.started = false
}

// AddRunnable queues p for the scheduler.
func (k *Kernel) AddRunnable(p *Process) {
	k.sched.runq = append(k.sched.runq, p)
}

// StartScheduler begins round-robin scheduling with the given timeslice.
func (k *Kernel) StartScheduler(slice sim.Time) error {
	if k.cpu == nil {
		return fmt.Errorf("kernel%d: no CPU to schedule", k.id)
	}
	if len(k.sched.runq) == 0 {
		return fmt.Errorf("kernel%d: empty run queue", k.id)
	}
	k.sched.slice = slice
	k.sched.active = true
	prev := k.enter()
	k.Preempt()
	k.eng.After(slice, k.tick)
	k.eng.EnterDomain(prev)
	return nil
}

// StopScheduler halts preemption (the current process keeps running).
func (k *Kernel) StopScheduler() { k.sched.active = false }

func (k *Kernel) tick() {
	if !k.sched.active {
		return
	}
	k.Preempt()
	k.eng.After(k.sched.slice, k.tick)
}

// Preempt performs one context switch to the next runnable process.
// Note what is absent: no NIC state is touched.
func (k *Kernel) Preempt() {
	if len(k.sched.runq) == 0 {
		return
	}
	cur := k.sched.current
	if cur != nil && cur.started {
		// Always preserve the context (a halted process's final
		// registers stay readable); only a live process re-queues.
		cur.state = k.cpu.Save()
		if !k.cpu.Halted() {
			k.sched.runq = append(k.sched.runq, cur)
		}
	}
	next := k.sched.runq[0]
	k.sched.runq = k.sched.runq[1:]
	k.switchTo(next)
	k.stats.ContextSwitches++
}

func (k *Kernel) switchTo(p *Process) {
	k.sched.current = p
	if k.box != nil {
		k.box.CurrentAS = p.AS
	}
	if !p.started {
		p.started = true
		k.cpu.Load(p.prog)
		k.cpu.R = p.regs
		if err := k.cpu.Start(p.entry); err != nil {
			panic(fmt.Sprintf("kernel%d: start pid %d: %v", k.id, p.PID, err))
		}
		return
	}
	k.cpu.Restore(p.state)
	k.cpu.Resume()
}

// RunnableCount returns the number of queued processes (excluding the
// current one).
func (k *Kernel) RunnableCount() int { return len(k.sched.runq) }
