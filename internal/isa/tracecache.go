package isa

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// Superblock trace cache.
//
// The literal interpreter (exec.go) pays a full decode-dispatch per
// instruction: operand kind switches, effective-address composition
// and size defaulting on every retirement. On the shipping path
// (Config.MaxBatch > 1) this file caches that work; per-instruction
// stepping never touches it.
// Each program position gets a lazily built superblock: the longest
// run of "pure" instructions starting there (register/immediate-only
// operations that touch no memory, raise no fault, and cannot halt,
// trap or branch), pre-lowered to a flat micro-op array, plus metadata
// about the terminator that follows the run — in particular the
// dominant MOV-to-memory store (the §5 automatic-update fast path) is
// pre-resolved into a fastStore so its dispatch is one specialized
// call: store → translate (micro-TLB) → cache → bus write → NIC snoop.
//
// Keying. Programs come from AssembleCached, which returns one shared
// immutable *Program per source text, so *Program identity is the
// "program version" and a per-CPU map[*Program]*progTrace is a sound
// cache. CPU.Reset flushes the map (Machine.Reset reaches it through
// that); remapped data pages are invisible here because superblocks
// cache decode only — data access still goes through translation every
// time (see kernel.MemBox and its generation-tagged micro-TLB).
//
// Correctness. Pure instructions cannot observe or perturb anything
// outside the register file: they schedule nothing, touch no memory,
// raise no IRQ and cannot halt or freeze. So the hazards the literal
// loop tests after each instruction — the batch quantum, the engine's
// next event and its run bound — stay fixed across a run, and CPU.step
// finds the first op at which one holds before it retires any: one
// comparison of the run's end when none falls inside (completion times
// only grow), one division per hazard when one does. It retires the
// run up to that op back-to-back and yields where the literal loop
// would, with the same clock, eip, counters and batch telemetry, or
// retires the whole run with a single clock advance and goes on to the
// terminator. Either way the result is bit-identical to stepping the
// ops one by one. Anything not provably pure goes to the literal
// interpreter.

// maxRun bounds how many instructions a superblock scan considers.
const maxRun = 48

// regNone mirrors NoReg for the uint8-packed uop operand fields.
const regNone = uint8(NoReg)

// uopKind enumerates the specialized pure micro-ops. Operand forms are
// fused into the kind so dispatch is a single flat switch.
type uopKind uint8

const (
	uNop uopKind = iota
	uCld
	uStd
	uMovRR
	uMovRI
	uLea
	uAddRR
	uAddRI
	uAdcRR
	uAdcRI
	uSubRR
	uSubRI
	uSbbRR
	uSbbRI
	uAndRR
	uAndRI
	uOrRR
	uOrRI
	uXorRR
	uXorRI
	uCmpRR
	uCmpRI
	uTestRR
	uTestRI
	uIncR
	uDecR
	uNegR
	uNotR
	uShlR
	uShlI
	uShrR
	uShrI
	uSarR
	uSarI
	uXchgRR
)

// uop is one pre-decoded pure micro-op. d and s are register numbers;
// for uLea, s/x/sc/imm hold base, index, scale and displacement.
type uop struct {
	k   uopKind
	d   uint8
	s   uint8
	x   uint8
	sc  uint8
	imm uint32
}

// fastStore is a pre-decoded MOV-to-memory terminator: [base+disp] ←
// reg or immediate, with no index register. src is regNone for the
// immediate form.
type fastStore struct {
	ok   bool
	base uint8
	src  uint8
	size uint8
	disp uint32
	imm  uint32
}

// fastJcc is a pre-decoded direct jump terminator (JMP or a condition
// code; LOOP and CALL keep the generic path).
type fastJcc struct {
	ok     bool
	op     Op
	target int
}

// sblock is the superblock anchored at one program position.
type sblock struct {
	built    bool
	end      int // position of the terminator: start + len(pure)
	pure     []uop
	pureCost sim.Time
	fs       fastStore // terminator store, when it is one
	jcc      fastJcc   // terminator jump, when it is one
}

// progTrace is the per-program block array; blocks build on demand.
type progTrace struct {
	prog   *Program
	blocks []sblock
}

// traceFor returns (building if needed) the trace for p.
func (c *CPU) traceFor(p *Program) *progTrace {
	if t, ok := c.traces[p]; ok {
		return t
	}
	if c.traces == nil {
		c.traces = make(map[*Program]*progTrace)
	}
	t := &progTrace{prog: p, blocks: make([]sblock, len(p.Instrs))}
	c.traces[p] = t
	return t
}

// block returns the superblock at pc, building it on first touch.
func (c *CPU) block(t *progTrace, pc int) *sblock {
	b := &t.blocks[pc]
	if !b.built {
		t.build(c, pc)
		c.scope.Inc(obs.CtrTraceMisses)
	} else {
		c.scope.Inc(obs.CtrTraceHits)
	}
	return b
}

// FlushTraces drops every built superblock. Reset calls it; programs
// are immutable (AssembleCached), so nothing else needs to.
func (c *CPU) FlushTraces() {
	if len(c.traces) > 0 {
		clear(c.traces)
		c.scope.Inc(obs.CtrTraceFlushes)
	}
	c.cur = nil
}

// build populates the superblock at pc: the pure prefix and the
// terminator store or jump if the next instruction is one.
func (t *progTrace) build(c *CPU, pc int) {
	b := &t.blocks[pc]
	b.built = true
	instrs := t.prog.Instrs
	i := pc
	for i < len(instrs) && i-pc < maxRun {
		u, ok := pureUop(&instrs[i])
		if !ok {
			break
		}
		b.pure = append(b.pure, u)
		i++
	}
	b.end = i
	b.pureCost = sim.Time(len(b.pure)) * c.cfg.CycleTime
	if i < len(instrs) {
		b.fs = fastStoreOf(&instrs[i])
		if in := &instrs[i]; !b.fs.ok && in.Op >= JMP && in.Op <= JNS {
			b.jcc = fastJcc{ok: true, op: in.Op, target: in.Target}
		}
	}
}

// pureUop lowers in to a micro-op if it is pure: registers and
// immediates only, no memory, no fault, no flow control, no halt. Size
// suffixes are irrelevant for register operands (readOp/writeOp ignore
// them), so they do not block lowering.
func pureUop(in *Instr) (uop, bool) {
	if in.Rep || in.Lock {
		return uop{}, false
	}
	rr := in.Dst.Kind == KindReg && in.Src.Kind == KindReg
	ri := in.Dst.Kind == KindReg && in.Src.Kind == KindImm
	d, s, imm := uint8(in.Dst.Reg), uint8(in.Src.Reg), uint32(in.Src.Imm)
	two := func(krr, kri uopKind) (uop, bool) {
		if rr {
			return uop{k: krr, d: d, s: s}, true
		}
		if ri {
			return uop{k: kri, d: d, imm: imm}, true
		}
		return uop{}, false
	}
	switch in.Op {
	case NOP:
		return uop{k: uNop}, true
	case CLD:
		return uop{k: uCld}, true
	case STD:
		return uop{k: uStd}, true
	case MOV, MOVZX:
		// MOVZX on a register source reads the full register, exactly
		// like MOV (sub-word semantics apply to memory only).
		return two(uMovRR, uMovRI)
	case LEA:
		if in.Dst.Kind == KindReg && in.Src.Kind == KindMem {
			return uop{k: uLea, d: d, s: uint8(in.Src.Base), x: uint8(in.Src.Index),
				sc: in.Src.Scale, imm: uint32(in.Src.Disp)}, true
		}
	case ADD:
		return two(uAddRR, uAddRI)
	case ADC:
		return two(uAdcRR, uAdcRI)
	case SUB:
		return two(uSubRR, uSubRI)
	case SBB:
		return two(uSbbRR, uSbbRI)
	case AND:
		return two(uAndRR, uAndRI)
	case OR:
		return two(uOrRR, uOrRI)
	case XOR:
		return two(uXorRR, uXorRI)
	case CMP:
		return two(uCmpRR, uCmpRI)
	case TEST:
		return two(uTestRR, uTestRI)
	case SHL:
		return two(uShlR, uShlI)
	case SHR:
		return two(uShrR, uShrI)
	case SAR:
		return two(uSarR, uSarI)
	case INC, DEC, NEG, NOT:
		if in.Dst.Kind == KindReg {
			switch in.Op {
			case INC:
				return uop{k: uIncR, d: d}, true
			case DEC:
				return uop{k: uDecR, d: d}, true
			case NEG:
				return uop{k: uNegR, d: d}, true
			case NOT:
				return uop{k: uNotR, d: d}, true
			}
		}
	case XCHG:
		if rr {
			return uop{k: uXchgRR, d: d, s: s}, true
		}
	}
	return uop{}, false
}

// fastStoreOf pre-decodes a MOV-to-memory instruction with no index
// register into a fastStore; anything else yields ok=false.
func fastStoreOf(in *Instr) fastStore {
	if in.Op != MOV || in.Rep || in.Lock ||
		in.Dst.Kind != KindMem || in.Dst.Index != NoReg {
		return fastStore{}
	}
	fs := fastStore{ok: true, base: uint8(in.Dst.Base), disp: uint32(in.Dst.Disp), size: 4}
	if in.Size != 0 {
		fs.size = uint8(in.Size)
	}
	switch in.Src.Kind {
	case KindReg:
		fs.src = uint8(in.Src.Reg)
	case KindImm:
		fs.src = regNone
		fs.imm = uint32(in.Src.Imm)
	default:
		return fastStore{}
	}
	return fs
}

// runPure retires a pure micro-op run. No memory, no faults, no
// branches: only the register file and arithmetic flags change, through
// the same helpers the literal interpreter uses.
func (c *CPU) runPure(uops []uop) {
	for i := range uops {
		u := &uops[i]
		switch u.k {
		case uNop:
		case uCld:
			c.DF = false
		case uStd:
			c.DF = true
		case uMovRR:
			c.R[u.d] = c.R[u.s]
		case uMovRI:
			c.R[u.d] = u.imm
		case uLea:
			a := u.imm
			if u.s != regNone {
				a += c.R[u.s]
			}
			if u.x != regNone {
				a += c.R[u.x] * uint32(u.sc)
			}
			c.R[u.d] = a
		case uAddRR:
			c.R[u.d] = c.add(c.R[u.d], c.R[u.s], false)
		case uAddRI:
			c.R[u.d] = c.add(c.R[u.d], u.imm, false)
		case uAdcRR:
			c.R[u.d] = c.add(c.R[u.d], c.R[u.s], c.CF)
		case uAdcRI:
			c.R[u.d] = c.add(c.R[u.d], u.imm, c.CF)
		case uSubRR:
			c.R[u.d] = c.sub(c.R[u.d], c.R[u.s], false)
		case uSubRI:
			c.R[u.d] = c.sub(c.R[u.d], u.imm, false)
		case uSbbRR:
			c.R[u.d] = c.sub(c.R[u.d], c.R[u.s], c.CF)
		case uSbbRI:
			c.R[u.d] = c.sub(c.R[u.d], u.imm, c.CF)
		case uAndRR:
			c.R[u.d] = c.logic(c.R[u.d] & c.R[u.s])
		case uAndRI:
			c.R[u.d] = c.logic(c.R[u.d] & u.imm)
		case uOrRR:
			c.R[u.d] = c.logic(c.R[u.d] | c.R[u.s])
		case uOrRI:
			c.R[u.d] = c.logic(c.R[u.d] | u.imm)
		case uXorRR:
			c.R[u.d] = c.logic(c.R[u.d] ^ c.R[u.s])
		case uXorRI:
			c.R[u.d] = c.logic(c.R[u.d] ^ u.imm)
		case uCmpRR:
			c.sub(c.R[u.d], c.R[u.s], false)
		case uCmpRI:
			c.sub(c.R[u.d], u.imm, false)
		case uTestRR:
			c.logic(c.R[u.d] & c.R[u.s])
		case uTestRI:
			c.logic(c.R[u.d] & u.imm)
		case uIncR:
			cf := c.CF // INC/DEC preserve CF
			c.R[u.d] = c.add(c.R[u.d], 1, false)
			c.CF = cf
		case uDecR:
			cf := c.CF
			c.R[u.d] = c.sub(c.R[u.d], 1, false)
			c.CF = cf
		case uNegR:
			a := c.R[u.d]
			c.R[u.d] = c.sub(0, a, false)
			c.CF = a != 0
		case uNotR:
			c.R[u.d] = ^c.R[u.d] // NOT sets no flags
		case uShlR:
			c.R[u.d] = c.shift(SHL, c.R[u.d], c.R[u.s])
		case uShlI:
			c.R[u.d] = c.shift(SHL, c.R[u.d], u.imm)
		case uShrR:
			c.R[u.d] = c.shift(SHR, c.R[u.d], c.R[u.s])
		case uShrI:
			c.R[u.d] = c.shift(SHR, c.R[u.d], u.imm)
		case uSarR:
			c.R[u.d] = c.shift(SAR, c.R[u.d], c.R[u.s])
		case uSarI:
			c.R[u.d] = c.shift(SAR, c.R[u.d], u.imm)
		case uXchgRR:
			c.R[u.d], c.R[u.s] = c.R[u.s], c.R[u.d]
		}
	}
}
