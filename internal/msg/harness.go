// Package msg implements the message-passing primitives of the paper's
// evaluation (§5.2) on top of the virtual memory-mapped network
// interface — each one twice:
//
//   - as hand-written routines in the simulated i386-subset ISA, so
//     that software overhead is measured in executed CPU instructions
//     exactly as Table 1 reports it: single buffering (± copy), the
//     three double-buffering loop cases, the deliberate-update send
//     macro, and NX/2-style csend/crecv — plus the traditional
//     kernel-mediated NX/2 baseline it is compared against;
//   - as a Go-level API (Channel, DoubleChannel, NX2) that examples and
//     integration tests drive end to end.
package msg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// CmdDelta is the fixed virtual-address distance between a data page and
// its command page in every process of this library (§4.2 leaves the
// placement to the kernel; a constant delta lets user code compute the
// command address with one ADD).
const CmdDelta = 0x4000_0000

// Pair is a two-node harness: one user process on each of two nodes,
// each with a private scratch page and a stack, ready to have buffers
// mapped between them and ISA routines run on them.
type Pair struct {
	M      *core.Machine
	S, R   *core.Node
	PS, PR *kernel.Process

	// SSyms/RSyms accumulate assembler symbols (buffer addresses etc.)
	// for the sender- and receiver-side programs.
	SSyms, RSyms map[string]int64
}

// NewPair prepares a pair on two nodes of a post-boot machine — fresh
// from core.New, or reused via Machine.Reset (the page allocator is
// deterministic, so a pair rebuilt after Reset sees the same addresses a
// fresh machine would).
func NewPair(m *core.Machine, snode, rnode int) *Pair {
	p := &Pair{
		M: m, S: m.Node(snode), R: m.Node(rnode),
		SSyms: map[string]int64{"CMDDELTA": CmdDelta},
		RSyms: map[string]int64{"CMDDELTA": CmdDelta},
	}
	p.PS = p.S.K.CreateProcess()
	p.PR = p.R.K.CreateProcess()
	for _, side := range []struct {
		proc *kernel.Process
		syms map[string]int64
	}{{p.PS, p.SSyms}, {p.PR, p.RSyms}} {
		priv, err := side.proc.AllocPages(1)
		if err != nil {
			panic(err)
		}
		stack, err := side.proc.AllocPages(1)
		if err != nil {
			panic(err)
		}
		side.syms["PRIV"] = int64(priv)
		side.syms["STKTOP"] = int64(stack) + phys.PageSize
	}
	return p
}

// Drain runs the machine until quiescent. A machine check or a blown
// event budget panics with its error, as a failed map or grant does in
// MapBuf and GrantCmd.
func (p *Pair) Drain() {
	if err := p.M.RunUntilIdle(20_000_000); err != nil {
		panic(err)
	}
}

// MapBuf allocates pages pages on both sides and maps sender→receiver
// with the given mode, registering the virtual addresses under the given
// symbol on each side. It returns (senderVA, receiverVA).
func (p *Pair) MapBuf(sym string, pages, alignPages int, mode nipt.Mode) (vm.VAddr, vm.VAddr) {
	sVA, err := p.PS.AllocPagesAligned(pages, alignPages)
	if err != nil {
		panic(err)
	}
	rVA, err := p.PR.AllocPagesAligned(pages, alignPages)
	if err != nil {
		panic(err)
	}
	p.M.MustMap(p.PS, sVA, pages*phys.PageSize, p.R.ID, p.PR.PID, rVA, mode)
	p.SSyms[sym] = int64(sVA)
	p.RSyms[sym] = int64(rVA)
	return sVA, rVA
}

// MapBack adds the complementary receiver→sender mapping over buffers
// already created by MapBuf, making them bidirectional (Figure 5's
// flag).
func (p *Pair) MapBack(sVA, rVA vm.VAddr, pages int, mode nipt.Mode) {
	p.M.MustMap(p.PR, rVA, pages*phys.PageSize, p.S.ID, p.PS.PID, sVA, mode)
}

// GrantCmd grants the sender process its command pages for the data
// pages at sVA, mapped at sVA+CmdDelta.
func (p *Pair) GrantCmd(sVA vm.VAddr, pages int) {
	if err := p.S.K.GrantCommandPages(p.PS, sVA, sVA+CmdDelta, pages); err != nil {
		panic(err)
	}
}

// Counts is the per-side instruction count of one measured run.
type Counts struct {
	User     uint64
	Kernel   uint64
	RepIters uint64
	Traps    uint64
}

// run executes prog from entry on the given node/process with the given
// initial registers (ESP defaults to the side's STKTOP), drains the
// machine, and returns the instruction counters.
func (p *Pair) run(node *core.Node, proc *kernel.Process, syms map[string]int64,
	prog *isa.Program, entry string, regs map[isa.Reg]uint32) Counts {
	node.K.BindProcess(proc)
	cpu := node.CPU
	cpu.Load(prog)
	cpu.R = [8]uint32{}
	cpu.R[isa.ESP] = uint32(syms["STKTOP"])
	for r, v := range regs {
		cpu.R[r] = v
	}
	cpu.ResetCounters()
	if err := cpu.Start(entry); err != nil {
		panic(err)
	}
	p.Drain()
	if !cpu.Halted() {
		panic(fmt.Sprintf("msg: %s did not halt (eip=%d)", prog.Name, cpu.EIP()))
	}
	if err := cpu.Err(); err != nil {
		panic(fmt.Sprintf("msg: %s aborted: %v", prog.Name, err))
	}
	c := cpu.Counters()
	return Counts{User: c.User, Kernel: c.Kernel, RepIters: c.RepIters, Traps: c.Traps}
}

// RunSender assembles and runs a sender-side routine.
func (p *Pair) RunSender(name, src, entry string, regs map[isa.Reg]uint32) Counts {
	prog := isa.MustAssembleCached(name, src, p.SSyms)
	return p.run(p.S, p.PS, p.SSyms, prog, entry, regs)
}

// RunReceiver assembles and runs a receiver-side routine.
func (p *Pair) RunReceiver(name, src, entry string, regs map[isa.Reg]uint32) Counts {
	prog := isa.MustAssembleCached(name, src, p.RSyms)
	return p.run(p.R, p.PR, p.RSyms, prog, entry, regs)
}

// WriteSender/ReadReceiver move application data in and out of process
// memory the way the application itself would (not counted as overhead,
// exactly as the paper excludes data generation and consumption).

// WriteSender stores bytes into the sender process's memory.
func (p *Pair) WriteSender(va vm.VAddr, b []byte) {
	if err := p.S.UserWriteBytes(p.PS, va, b); err != nil {
		panic(err)
	}
}

// ReadReceiver loads bytes from the receiver process's memory.
func (p *Pair) ReadReceiver(va vm.VAddr, n int) []byte {
	out := make([]byte, n)
	if err := p.R.UserReadBytes(p.PR, va, out); err != nil {
		panic(err)
	}
	return out
}

// ReadSender loads bytes from the sender process's memory.
func (p *Pair) ReadSender(va vm.VAddr, n int) []byte {
	out := make([]byte, n)
	if err := p.S.UserReadBytes(p.PS, va, out); err != nil {
		panic(err)
	}
	return out
}
