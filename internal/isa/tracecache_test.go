package isa

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// traceBatches are the MaxBatch settings every differential test
// compares: per-instruction stepping (the reference), and the shipping
// path — batching, superblock dispatch and fused terminators — at a
// quantum of 3 (frequent quantum breaks mid-run) and at the default 64.
var traceBatches = []int{1, 3, 64}

// traceDrainBudget bounds every differential run: a run that fires more
// events than this without halting counts as not halting.
const traceDrainBudget = 10_000_000

// traceRun captures everything a mode must reproduce bit-identically.
type traceRun struct {
	R        [8]uint32
	Flags    uint8
	Counters Counters
	End      sim.Time
	Mem      []byte
	Loads    int
	Stores   int
}

// runTraceMode executes src at one batch quantum. events schedules
// external memory writes (the only way a poll loop can exit). halted is
// false when the run did not halt within traceDrainBudget events.
func runTraceMode(t *testing.T, src string, batch int,
	setup func(*CPU, *flatMem), events func(*sim.Engine, *flatMem)) (run traceRun, halted bool) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxBatch = batch
	mem := newFlatMem()
	c := NewCPU(eng, cfg, mem)
	c.SetName("trace-test")
	c.Load(MustAssemble("trace-test", src, map[string]int64{"STK": 0x8000}))
	c.R[ESP] = 0x8000
	if setup != nil {
		setup(c, mem)
	}
	if events != nil {
		events(eng, mem)
	}
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	// A run the budget cuts short reports as not halted.
	_ = eng.DrainBudget(traceDrainBudget)
	if !c.Halted() {
		return traceRun{}, false
	}
	if c.Err() != nil {
		t.Fatalf("batch=%d: %v", batch, c.Err())
	}
	return traceRun{
		R: c.R, Flags: flagBits(c), Counters: c.Counters(), End: eng.Now(),
		Mem: mem.buf, Loads: mem.loads, Stores: mem.stores,
	}, true
}

// flagBits packs the five flags into one comparable value.
func flagBits(c *CPU) uint8 {
	var f uint8
	for i, set := range []bool{c.ZF, c.SF, c.CF, c.OF, c.DF} {
		if set {
			f |= 1 << i
		}
	}
	return f
}

// diffTraceModes runs src under every mode and requires bit-identical
// results against the per-instruction reference.
func diffTraceModes(t *testing.T, src string,
	setup func(*CPU, *flatMem), events func(*sim.Engine, *flatMem)) {
	t.Helper()
	var ref traceRun
	for i, batch := range traceBatches {
		got, halted := runTraceMode(t, src, batch, setup, events)
		if !halted {
			t.Fatalf("batch=%d: did not halt within %d events", batch, traceDrainBudget)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got.R != ref.R || got.Flags != ref.Flags {
			t.Errorf("batch=%d: registers/flags diverge: got %v/%#x want %v/%#x", batch, got.R, got.Flags, ref.R, ref.Flags)
		}
		if got.Counters != ref.Counters {
			t.Errorf("batch=%d: counters diverge: got %+v want %+v", batch, got.Counters, ref.Counters)
		}
		if got.End != ref.End {
			t.Errorf("batch=%d: final time diverges: got %v want %v", batch, got.End, ref.End)
		}
		if !bytes.Equal(got.Mem, ref.Mem) {
			t.Errorf("batch=%d: memory diverges", batch)
		}
		if got.Loads != ref.Loads || got.Stores != ref.Stores {
			t.Errorf("batch=%d: access counts diverge: got %d/%d want %d/%d",
				batch, got.Loads, got.Stores, ref.Loads, ref.Stores)
		}
	}
}

// TestTraceDifferentialALUMix covers every pure micro-op kind plus
// memory terminators, in a loop long enough to exercise quantum breaks.
func TestTraceDifferentialALUMix(t *testing.T) {
	diffTraceModes(t, `
main:
	mov	ecx, 500
	mov	esi, 0x1000
	xor	ebx, ebx
	cld
lp:
	mov	eax, ebx
	mov	edx, eax
	lea	edi, [esi + eax*2 + 8]
	add	eax, 12345
	adc	edx, 1
	sub	eax, 17
	sbb	edx, 0
	and	eax, 0x7fffffff
	or	eax, 3
	xor	eax, 0x5a5a
	not	edx
	neg	edx
	shl	eax, 3
	shr	eax, 1
	sar	edx, 2
	xchg	eax, edx
	cmp	eax, edx
	test	ebx, 1
	inc	ebx
	dec	ecx
	mov	[esi], eax
	mov	dword [esi + 4], 0xdeadbeef
	mov	byte [esi + 8], 0x7f
	jnz	lp
	std
	hlt
`, nil, nil)
}

// TestTraceDifferentialCallStack exercises impure terminators (CALL,
// RET, PUSH/POP, LOOP) between pure runs.
func TestTraceDifferentialCallStack(t *testing.T) {
	diffTraceModes(t, `
main:
	mov	ecx, 50
outer:
	push	ecx
	call	work
	pop	ecx
	loop	outer
	hlt
work:
	mov	eax, 7
	add	eax, 5
	shl	eax, 2
	mov	[0x2000], eax
	ret
`, nil, nil)
}

// pollSrc polls a flag another agent sets: the canonical §5 receive
// wait. The body is one load plus pure ops, closed by a backward jump.
const pollSrc = `
main:
	xor	ebx, ebx
pwait:
	mov	eax, [0x3000]
	test	eax, eax
	jz	pwait
	mov	ebx, eax
	hlt
`

// TestPollReleasedByEventDifferential: an external event releases the
// poll loop after a long wait, and every mode must agree on registers,
// instruction counts, load counts and the final timestamp.
func TestPollReleasedByEventDifferential(t *testing.T) {
	events := func(eng *sim.Engine, mem *flatMem) {
		eng.At(2*sim.Millisecond, func() { mem.w32(0x3000, 42) })
		// A mid-wait event that does NOT release the loop: the fast
		// path must yield to it and poll on.
		eng.At(1*sim.Millisecond, func() { mem.w32(0x3800, 9) })
	}
	diffTraceModes(t, pollSrc, nil, events)
	got, halted := runTraceMode(t, pollSrc, DefaultConfig().MaxBatch, nil, events)
	if !halted || got.R[EBX] != 42 {
		t.Fatalf("halted=%v ebx=%d, want the releasing write's 42", halted, got.R[EBX])
	}
}

// TestCountingLoadLoopDifferential: a loop that loads memory but counts
// in a register changes state every iteration; results must match
// exactly.
func TestCountingLoadLoopDifferential(t *testing.T) {
	diffTraceModes(t, `
main:
	xor	ebx, ebx
lp:
	mov	eax, [0x3000]
	add	ebx, 1
	cmp	ebx, 2000
	jne	lp
	hlt
`, nil, nil)
}

// TestStoreInLoopBodyDifferential: a poll-shaped loop whose body also
// stores; results must match across modes.
func TestStoreInLoopBodyDifferential(t *testing.T) {
	diffTraceModes(t, `
main:
	mov	ecx, 300
lp:
	mov	eax, [0x3000]
	mov	[0x3100], eax
	dec	ecx
	jnz	lp
	hlt
`, nil, nil)
}

// TestTraceFlushOnReset: Reset must drop all built superblocks.
func TestTraceFlushOnReset(t *testing.T) {
	mem := newFlatMem()
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), mem)
	c.Load(MustAssemble("flush", "main:\n\tmov eax, 1\n\tadd eax, 2\n\thlt\n", nil))
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(1000)
	if len(c.traces) == 0 {
		t.Fatal("no trace built")
	}
	c.Reset()
	if len(c.traces) != 0 || c.cur != nil {
		t.Fatalf("Reset left trace state: %d traces, cur=%v", len(c.traces), c.cur)
	}
}

// TestTraceKeyedByProgramIdentity: two programs with a shared entry
// label but different bodies must never see each other's superblocks.
func TestTraceKeyedByProgramIdentity(t *testing.T) {
	mem := newFlatMem()
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), mem)
	runProg := func(src string) uint32 {
		c.Load(MustAssemble("prog-ident", src, nil))
		c.R = [8]uint32{}
		c.R[ESP] = 0x8000
		if err := c.Start("main"); err != nil {
			t.Fatal(err)
		}
		eng.Drain(1000)
		if !c.Halted() || c.Err() != nil {
			t.Fatalf("halted=%v err=%v", c.Halted(), c.Err())
		}
		return c.R[EAX]
	}
	// Same shape, different constants, assembled as distinct Programs.
	if got := runProg("main:\n\tmov eax, 10\n\tadd eax, 1\n\thlt\n"); got != 11 {
		t.Fatalf("first program: eax=%d want 11", got)
	}
	if got := runProg("main:\n\tmov eax, 20\n\tadd eax, 2\n\thlt\n"); got != 22 {
		t.Fatalf("second program executed a stale superblock: eax=%d want 22", got)
	}
	if len(c.traces) != 2 {
		t.Fatalf("expected 2 program traces, got %d", len(c.traces))
	}
}
