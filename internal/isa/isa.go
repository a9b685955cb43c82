// Package isa implements a small x86-subset instruction set — an
// assembler and a cycle-counting interpreter.
//
// The paper measures message-passing software overhead in CPU
// instructions on i386-family processors (Table 1). To reproduce that
// metric directly rather than by analogy, every measured primitive in
// this repository is written in this ISA and executed on the simulated
// machine; the interpreter counts executed instructions exactly as the
// paper does (spin loops measured with their condition already
// satisfied, REP string iterations excluded as "per-byte copying
// costs").
//
// The subset covers what the primitives need: the eight 386 GPRs, MOV
// in all width/direction combinations, the common ALU group, Jcc,
// CALL/RET/PUSH/POP, string moves with REP, INT/IRET, and the locked
// CMPXCHG that the deliberate-update command protocol of §4.3 is built
// on.
package isa

import (
	"fmt"
	"strings"
)

// Reg names a 32-bit general-purpose register, in x86 encoding order.
type Reg uint8

// The eight i386 general-purpose registers.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	numRegs
	// NoReg marks an absent base or index register in a memory operand.
	NoReg Reg = 0xff
)

var regNames = [...]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

func (r Reg) String() string {
	if r < numRegs {
		return regNames[r]
	}
	if r == NoReg {
		return "<noreg>"
	}
	return fmt.Sprintf("Reg(%d)", uint8(r))
}

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	NOP Op = iota
	MOV
	MOVZX // zero-extending load of a sub-word memory operand
	LEA
	ADD
	ADC
	SUB
	SBB
	INC
	DEC
	NEG
	NOT
	AND
	OR
	XOR
	SHL
	SHR
	SAR
	CMP
	TEST
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	LOOP
	CALL
	RET
	PUSH
	POP
	XCHG
	CMPXCHG
	MOVS // string move, width from Instr.Size
	STOS // string store, width from Instr.Size
	CLD
	STD
	INT
	IRET
	HLT
	numOps
)

var opNames = [...]string{
	"nop", "mov", "movzx", "lea", "add", "adc", "sub", "sbb", "inc", "dec",
	"neg", "not", "and", "or", "xor", "shl", "shr", "sar", "cmp", "test",
	"jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae",
	"js", "jns", "loop", "call", "ret", "push", "pop", "xchg", "cmpxchg",
	"movs", "stos", "cld", "std", "int", "iret", "hlt",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsJump reports whether the opcode transfers control to a label.
func (o Op) IsJump() bool { return (o >= JMP && o <= LOOP) || o == CALL }

// OpKind classifies an operand.
type OpKind uint8

// Operand kinds.
const (
	KindNone OpKind = iota
	KindReg
	KindImm
	KindMem
)

// Operand is one instruction operand. Memory operands follow the x86
// addressing form [Base + Index*Scale + Disp].
type Operand struct {
	Kind  OpKind
	Reg   Reg
	Imm   int32
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int32
}

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// I returns an immediate operand.
func I(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return o.Reg.String()
	case KindImm:
		return fmt.Sprintf("%d", o.Imm)
	case KindMem:
		var b strings.Builder
		b.WriteByte('[')
		first := true
		if o.Base != NoReg {
			b.WriteString(o.Base.String())
			first = false
		}
		if o.Index != NoReg {
			if !first {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%s*%d", o.Index, o.Scale)
			first = false
		}
		if o.Disp != 0 || first {
			if !first && o.Disp >= 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d", o.Disp)
		}
		b.WriteByte(']')
		return b.String()
	}
	return "<bad operand>"
}

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Size   int  // operand width in bytes for memory accesses: 1, 2 or 4
	Lock   bool // LOCK prefix (atomic bus tenure)
	Rep    bool // REP prefix on string ops
	Dst    Operand
	Src    Operand
	Target int    // resolved instruction index for jump/call targets
	Label  string // original label text of the target (diagnostics)
	Line   int    // 1-based source line (diagnostics)
}

func (in Instr) String() string {
	var b strings.Builder
	if in.Lock {
		b.WriteString("lock ")
	}
	if in.Rep {
		b.WriteString("rep ")
	}
	b.WriteString(in.Op.String())
	if in.Op == MOVS || in.Op == STOS {
		switch in.Size {
		case 1:
			b.WriteByte('b')
		case 2:
			b.WriteByte('w')
		default:
			b.WriteByte('d')
		}
		return b.String()
	}
	if in.Op.IsJump() {
		fmt.Fprintf(&b, " %s", in.Label)
		return b.String()
	}
	if in.Dst.Kind != KindNone {
		b.WriteByte(' ')
		writeOperand(&b, in.Dst, in.Size)
	}
	if in.Src.Kind != KindNone {
		b.WriteString(", ")
		writeOperand(&b, in.Src, in.Size)
	}
	return b.String()
}

func writeOperand(b *strings.Builder, o Operand, size int) {
	if o.Kind == KindMem && size != 4 && size != 0 {
		if size == 1 {
			b.WriteString("byte ")
		} else {
			b.WriteString("word ")
		}
	}
	b.WriteString(o.String())
}

// Program is an assembled routine: instructions plus its label table.
type Program struct {
	Instrs []Instr
	Labels map[string]int
	Name   string
}

// Entry returns the instruction index of a label.
func (p *Program) Entry(label string) (int, error) {
	i, ok := p.Labels[label]
	if !ok {
		return 0, fmt.Errorf("isa: program %q has no label %q", p.Name, label)
	}
	return i, nil
}

// MustEntry is Entry that panics on unknown labels.
func (p *Program) MustEntry(label string) int {
	i, err := p.Entry(label)
	if err != nil {
		panic(err)
	}
	return i
}

// Listing renders the program as assembly text with instruction indices,
// for debugging and golden tests.
func (p *Program) Listing() string {
	byIndex := make(map[int][]string)
	for l, i := range p.Labels {
		byIndex[i] = append(byIndex[i], l)
	}
	var b strings.Builder
	for i, in := range p.Instrs {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%4d    %s\n", i, in.String())
	}
	for _, l := range byIndex[len(p.Instrs)] {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	return b.String()
}
