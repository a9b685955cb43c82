package isa

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// FuzzFastPathMatchesReference decodes each input into a random program
// plus one external memory write, and runs it through diffTraceModes:
// the shipping path must agree bit for bit with per-instruction
// stepping. Inputs whose reference run does not halt within the drain
// budget are skipped.
//
// Input layout: two bytes of write time in nanoseconds (little endian),
// one byte of written value, one byte of subroutine count, then each
// subroutine's item count and items, then the main program's items.
// Programs halt by construction: the generator never writes the loop
// counter (ecx), the window base (ebp) or esp, subroutine bodies leave
// the stack alone, loops do not nest, and every flag poll is released
// by the external write, which always stores a nonzero value to fzFlag.
//
// Two committed seeds cut pure runs short: in write-mid-pure-run the
// external write at 200 ns lands inside main's opening 31-op pure run
// (at quantum 64 the run yields after op 14 for it), and in
// quantum-mid-pure-run quantum edges fall inside runs at quantum 3,
// among them after op 2 of a run that starts behind a store.
func FuzzFastPathMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src, events := fuzzProgram(data)
		if _, halted := runTraceMode(t, src, 1, nil, events); !halted {
			t.Skip("reference run does not halt within the drain budget")
		}
		diffTraceModes(t, src, nil, events)
	})
}

const (
	fzWindow   = 0x1000 // 256-byte load/store window, based in ebp
	fzFlag     = 0x2000 // polled flag word, written only by the event
	fzMaxItems = 64     // main-program items
)

var (
	fzDst = []string{"eax", "ebx", "edx", "esi", "edi"}
	fzSrc = []string{"eax", "ebx", "edx", "esi", "edi", "ecx", "ebp"}
	fzALU = []string{"mov", "add", "adc", "sub", "sbb", "and", "or", "xor", "cmp", "test"}
)

// fzLines are the straight-line menu entries. Each $ field is filled
// from the input: $d a register the generator may write, $s any
// register but esp, $a an ALU op, $u a unary op, $h a shift, $i an
// immediate, $k a shift count, $c an index scale, $b a byte, $o a dword
// offset into the window and $w a dword address in it. The last two
// entries move the stack, so subroutine bodies draw from the others.
var fzLines = []string{
	"$a $d, $s", "xchg $d, $d", "$a $d, $i", "$u $d", "$h $d, $k", "lea $d, [$s + $s*$c + $b]",
	"mov $d, [ebp + $o]", "movzx $d, byte [ebp + $b]", "mov $d, [$w]", "$a $d, [ebp + $o]",
	"cmp [ebp + $o], $s", "mov [ebp + $o], $s", "mov dword [ebp + $o], $i",
	"mov byte [ebp + $b], $b", "mov [$w], $s",
	"push $s", "pop $d",
}

// fuzzGen decodes input bytes (zeros once the input is spent) into
// program text.
type fuzzGen struct {
	data   []byte
	b      strings.Builder
	labels int
	subs   int
}

func (g *fuzzGen) byte() int {
	if len(g.data) == 0 {
		return 0
	}
	v := g.data[0]
	g.data = g.data[1:]
	return int(v)
}

func (g *fuzzGen) label() string {
	g.labels++
	return "L" + strconv.Itoa(g.labels)
}

// field fills one $ field of an fzLines template.
func (g *fuzzGen) field(c byte) string {
	v := g.byte()
	switch c {
	case 'd':
		return fzDst[v%len(fzDst)]
	case 's':
		return fzSrc[v%len(fzSrc)]
	case 'a':
		return fzALU[v%len(fzALU)]
	case 'u':
		return []string{"inc", "dec", "neg", "not"}[v%4]
	case 'h':
		return []string{"shl", "shr", "sar"}[v%3]
	case 'i':
		return strconv.Itoa(int(int16(v | g.byte()<<8)))
	case 'k':
		v %= 32
	case 'c':
		v = 1 << (v % 4)
	case 'o':
		v &^= 3
	case 'w':
		v = fzWindow + v&^3
	}
	return strconv.Itoa(v)
}

// item emits one menu entry drawn from the first n kinds: the fzLines,
// then a flag poll, a call and a counted loop. n is len(fzLines)-2 for
// subroutine bodies, len(fzLines)+2 for loop bodies (loops do not nest)
// and len(fzLines)+3 for the main program.
func (g *fuzzGen) item(n int) {
	k := g.byte() % n
	if k < len(fzLines) {
		g.b.WriteByte('\t')
		for t := fzLines[k]; t != ""; t = t[1:] {
			if t[0] == '$' {
				t = t[1:]
				g.b.WriteString(g.field(t[0]))
			} else {
				g.b.WriteByte(t[0])
			}
		}
		g.b.WriteByte('\n')
		return
	}
	switch k - len(fzLines) {
	case 0: // a flag poll only the external write releases
		l, d := g.label(), g.field('d')
		if g.byte()%2 == 0 {
			fmt.Fprintf(&g.b, "%s:\n\tmov %s, [%d]\n\ttest %s, %s\n\tjz %s\n", l, d, fzFlag, d, d, l)
		} else {
			fmt.Fprintf(&g.b, "%s:\n\tcmp dword [%d], 0\n\tje %s\n", l, fzFlag, l)
		}
	case 1:
		if v := g.byte(); g.subs > 0 {
			fmt.Fprintf(&g.b, "\tcall S%d\n", v%g.subs)
		}
	case 2: // 1-16 iterations of 1-4 items, counted in ecx
		l, v := g.label(), g.byte()
		fmt.Fprintf(&g.b, "\tmov ecx, %d\n%s:\n", 1+v%16, l)
		for i := 1 + g.byte()%4; i > 0; i-- {
			g.item(len(fzLines) + 2)
		}
		fmt.Fprintf(&g.b, []string{"\tdec ecx\n\tjnz %s\n", "\tloop %s\n", "\tdec ecx\n\tjg %s\n"}[v%3], l)
	}
}

// fuzzProgram decodes data into program text and the external write.
func fuzzProgram(data []byte) (string, func(*sim.Engine, *flatMem)) {
	g := &fuzzGen{data: data}
	at := sim.Time(g.byte()|g.byte()<<8) * sim.Nanosecond
	val := uint32(g.byte()) + 1
	g.subs = g.byte() % 4
	for i := 0; i < g.subs; i++ {
		fmt.Fprintf(&g.b, "S%d:\n", i)
		for n := 1 + g.byte()%6; n > 0; n-- {
			g.item(len(fzLines) - 2)
		}
		g.b.WriteString("\tret\n")
	}
	fmt.Fprintf(&g.b, "main:\n\tmov ebp, %d\n", fzWindow)
	for n := 0; len(g.data) > 0 && n < fzMaxItems; n++ {
		g.item(len(fzLines) + 3)
	}
	g.b.WriteString("\thlt\n")
	return g.b.String(), func(eng *sim.Engine, mem *flatMem) {
		eng.At(at, func() { mem.w32(vm.VAddr(fzFlag), val) })
	}
}
