package isa

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/vm"
)

// flatMem is a fault-free MemPort over a flat buffer, with an optional
// fault window and a cmpxchg script.
type flatMem struct {
	buf      []byte
	badLo    vm.VAddr
	badHi    vm.VAddr
	badWrite bool // fault window applies to writes only
	readOnly map[vm.VPN]bool

	cmpxRead   uint32
	cmpxAccept bool
	cmpxAddr   vm.VAddr
	cmpxWrites []uint32
	loads      int
	stores     int
	cmpxOps    int
}

func newFlatMem() *flatMem {
	return &flatMem{buf: make([]byte, 1<<16), cmpxAccept: true, readOnly: map[vm.VPN]bool{}}
}

func (m *flatMem) fault(a vm.VAddr, write bool) *vm.Fault {
	if a >= m.badLo && a < m.badHi && (!m.badWrite || write) {
		return &vm.Fault{VA: a, Write: write, Reason: vm.NotPresent}
	}
	if write && m.readOnly[a.Page()] {
		return &vm.Fault{VA: a, Write: true, Reason: vm.Protection}
	}
	return nil
}

func (m *flatMem) Load(a vm.VAddr, size int) (uint32, sim.Time, *vm.Fault) {
	if f := m.fault(a, false); f != nil {
		return 0, 0, f
	}
	m.loads++
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(m.buf[int(a)+i]) << (8 * i)
	}
	return v, sim.Nanosecond, nil
}

func (m *flatMem) Store(a vm.VAddr, v uint32, size int) (sim.Time, *vm.Fault) {
	if f := m.fault(a, true); f != nil {
		return 0, f
	}
	m.stores++
	for i := 0; i < size; i++ {
		m.buf[int(a)+i] = byte(v >> (8 * i))
	}
	return sim.Nanosecond, nil
}

func (m *flatMem) CmpxchgLocked(a vm.VAddr, expect, repl uint32) (uint32, bool, sim.Time, *vm.Fault) {
	if f := m.fault(a, true); f != nil {
		return 0, false, 0, f
	}
	m.cmpxOps++
	m.cmpxAddr = a
	if m.cmpxRead == expect && m.cmpxAccept {
		m.cmpxWrites = append(m.cmpxWrites, repl)
		return m.cmpxRead, true, sim.Nanosecond, nil
	}
	return m.cmpxRead, false, sim.Nanosecond, nil
}

func (m *flatMem) w32(a vm.VAddr, v uint32) {
	for i := 0; i < 4; i++ {
		m.buf[int(a)+i] = byte(v >> (8 * i))
	}
}

func (m *flatMem) r32(a vm.VAddr) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(m.buf[int(a)+i]) << (8 * i)
	}
	return v
}

// run assembles and executes src to completion, returning the CPU.
func run(t *testing.T, src string, mem *flatMem, setup func(*CPU)) *CPU {
	t.Helper()
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), mem)
	c.SetName("test")
	p, err := Assemble("test", src, map[string]int64{"STK": 0x8000})
	if err != nil {
		t.Fatal(err)
	}
	c.Load(p)
	c.R[ESP] = 0x8000
	if setup != nil {
		setup(c)
	}
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(1_000_000)
	if !c.Halted() {
		t.Fatalf("did not halt (eip=%d)", c.EIP())
	}
	return c
}

func TestALUAndFlags(t *testing.T) {
	mem := newFlatMem()
	c := run(t, `
main:
	mov	eax, 10
	sub	eax, 10		; ZF
	hlt
`, mem, nil)
	if !c.ZF || c.SF || c.CF {
		t.Fatalf("flags after 10-10: ZF=%v SF=%v CF=%v", c.ZF, c.SF, c.CF)
	}

	c = run(t, `
main:
	mov	eax, 3
	sub	eax, 5		; borrow: CF, SF
	hlt
`, mem, nil)
	if c.R[EAX] != 0xfffffffe || !c.CF || !c.SF || c.ZF {
		t.Fatalf("3-5: eax=%#x CF=%v SF=%v", c.R[EAX], c.CF, c.SF)
	}

	c = run(t, `
main:
	mov	eax, 0x7fffffff
	add	eax, 1		; signed overflow
	hlt
`, mem, nil)
	if !c.OF || !c.SF || c.CF {
		t.Fatalf("overflow: OF=%v SF=%v CF=%v", c.OF, c.SF, c.CF)
	}

	c = run(t, `
main:
	mov	eax, -1
	add	eax, 1		; carry out, zero
	hlt
`, mem, nil)
	if !c.CF || !c.ZF || c.OF {
		t.Fatalf("carry: CF=%v ZF=%v OF=%v", c.CF, c.ZF, c.OF)
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	c := run(t, `
main:
	mov	eax, -1
	add	eax, 1		; sets CF
	mov	ebx, 5
	inc	ebx		; must not clear CF
	hlt
`, newFlatMem(), nil)
	if !c.CF || c.R[EBX] != 6 {
		t.Fatal("inc clobbered CF")
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 1
	shl	eax, 31
	mov	ebx, 0x80000000
	shr	ebx, 31
	mov	ecx, 0x80000000
	sar	ecx, 31
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 0x80000000 || c.R[EBX] != 1 || c.R[ECX] != 0xffffffff {
		t.Fatalf("shifts: %#x %#x %#x", c.R[EAX], c.R[EBX], c.R[ECX])
	}
}

func TestConditionalJumps(t *testing.T) {
	// Signed vs unsigned comparisons.
	c := run(t, `
main:
	mov	eax, -1
	cmp	eax, 1
	jl	signed_less	; -1 < 1 signed
	hlt
signed_less:
	mov	ebx, 1
	cmp	eax, 1
	ja	unsigned_above	; 0xffffffff > 1 unsigned
	hlt
unsigned_above:
	mov	ecx, 1
	hlt
`, newFlatMem(), nil)
	if c.R[EBX] != 1 || c.R[ECX] != 1 {
		t.Fatalf("branches: ebx=%d ecx=%d", c.R[EBX], c.R[ECX])
	}
}

func TestLoopInstruction(t *testing.T) {
	c := run(t, `
main:
	mov	ecx, 5
	xor	eax, eax
body:	add	eax, 2
	loop	body
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 10 || c.R[ECX] != 0 {
		t.Fatalf("loop: eax=%d ecx=%d", c.R[EAX], c.R[ECX])
	}
}

func TestMemoryOperands(t *testing.T) {
	mem := newFlatMem()
	mem.w32(0x100, 0x11223344)
	c := run(t, `
main:
	mov	esi, 0x100
	mov	eax, [esi]
	mov	[esi+4], eax
	mov	dword [esi+8], 99
	movzx	ebx, byte [esi]
	movzx	ecx, word [esi+2]
	lea	edx, [esi+ecx*2+6]
	hlt
`, mem, nil)
	if c.R[EAX] != 0x11223344 || mem.r32(0x104) != 0x11223344 || mem.r32(0x108) != 99 {
		t.Fatal("mem moves")
	}
	if c.R[EBX] != 0x44 || c.R[ECX] != 0x1122 {
		t.Fatalf("movzx: %#x %#x", c.R[EBX], c.R[ECX])
	}
	if c.R[EDX] != 0x100+0x1122*2+6 {
		t.Fatalf("lea: %#x", c.R[EDX])
	}
}

func TestCallRetAndStack(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 1
	call	sub1
	add	eax, 100
	hlt
sub1:
	push	ebx
	mov	ebx, 10
	add	eax, ebx
	pop	ebx
	ret
`, newFlatMem(), nil)
	if c.R[EAX] != 111 {
		t.Fatalf("eax=%d", c.R[EAX])
	}
	if c.R[ESP] != 0x8000-4 {
		// The sentinel frame stays (HLT, not RET, ended the run).
		t.Fatalf("esp=%#x", c.R[ESP])
	}
}

func TestSentinelReturnHalts(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 7
	ret
`, newFlatMem(), nil)
	if !c.Halted() || c.Err() != nil || c.R[EAX] != 7 {
		t.Fatal("sentinel return")
	}
	// Neither the RET nor a HLT is counted.
	if c.Counters().User != 1 {
		t.Fatalf("counted %d, want 1 (just the mov)", c.Counters().User)
	}
}

func TestXchg(t *testing.T) {
	mem := newFlatMem()
	mem.w32(0x200, 55)
	c := run(t, `
main:
	mov	eax, 1
	mov	ebx, 2
	xchg	eax, ebx
	mov	esi, 0x200
	xchg	ecx, [esi]
	hlt
`, mem, nil)
	if c.R[EAX] != 2 || c.R[EBX] != 1 {
		t.Fatal("reg xchg")
	}
	if c.R[ECX] != 55 || mem.r32(0x200) != 0 {
		t.Fatal("mem xchg")
	}
}

func TestRepMovsCountingRule(t *testing.T) {
	mem := newFlatMem()
	for i := 0; i < 40; i++ {
		mem.buf[0x300+i] = byte(i + 1)
	}
	c := run(t, `
main:
	mov	esi, 0x300
	mov	edi, 0x400
	mov	ecx, 10
	cld
	rep movsd
	hlt
`, mem, nil)
	for i := 0; i < 40; i++ {
		if mem.buf[0x400+i] != byte(i+1) {
			t.Fatalf("copy byte %d", i)
		}
	}
	// 4 setup + 1 for the rep instruction itself; 9 iterations excluded.
	cnt := c.Counters()
	if cnt.User != 5 {
		t.Fatalf("user count %d, want 5", cnt.User)
	}
	if cnt.RepIters != 9 {
		t.Fatalf("rep iters %d, want 9", cnt.RepIters)
	}
	if c.R[ECX] != 0 || c.R[ESI] != 0x328 || c.R[EDI] != 0x428 {
		t.Fatal("string registers")
	}
}

func TestRepWithZeroCount(t *testing.T) {
	c := run(t, `
main:
	mov	esi, 0x300
	mov	edi, 0x400
	xor	ecx, ecx
	rep movsd
	hlt
`, newFlatMem(), nil)
	if c.R[EDI] != 0x400 {
		t.Fatal("rep with ecx=0 moved data")
	}
	if c.Counters().User != 4 {
		t.Fatalf("count %d", c.Counters().User)
	}
}

func TestStosAndDirectionFlag(t *testing.T) {
	mem := newFlatMem()
	c := run(t, `
main:
	mov	eax, 0xabcd1234
	mov	edi, 0x500
	mov	ecx, 3
	cld
	rep stosd
	std
	mov	edi, 0x520
	stosd
	hlt
`, mem, nil)
	for i := 0; i < 3; i++ {
		if mem.r32(vm.VAddr(0x500+4*i)) != 0xabcd1234 {
			t.Fatal("stos")
		}
	}
	if c.R[EDI] != 0x520-4 {
		t.Fatalf("std direction: edi=%#x", c.R[EDI])
	}
}

func TestCmpxchgSemantics(t *testing.T) {
	mem := newFlatMem()
	mem.cmpxRead = 0
	c := run(t, `
main:
	xor	eax, eax
	mov	ecx, 64
	lock cmpxchg [0x600], ecx
	hlt
`, mem, nil)
	if !c.ZF || len(mem.cmpxWrites) != 1 || mem.cmpxWrites[0] != 64 {
		t.Fatal("successful cmpxchg")
	}
	// Busy engine: read value lands in EAX, ZF clear.
	mem = newFlatMem()
	mem.cmpxRead = 0x99
	c = run(t, `
main:
	xor	eax, eax
	mov	ecx, 64
	lock cmpxchg [0x600], ecx
	hlt
`, mem, nil)
	if c.ZF || c.R[EAX] != 0x99 || len(mem.cmpxWrites) != 0 {
		t.Fatal("failed cmpxchg")
	}
}

func TestFaultAbortsWithoutHandler(t *testing.T) {
	mem := newFlatMem()
	mem.badLo, mem.badHi = 0x7000, 0x7100
	c := run(t, `
main:
	mov	eax, [0x7004]
	hlt
`, mem, nil)
	if c.Err() == nil {
		t.Fatal("fault did not abort")
	}
}

func TestFaultRetrySemantics(t *testing.T) {
	mem := newFlatMem()
	mem.badLo, mem.badHi, mem.badWrite = 0x7000, 0x7100, true
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	ebx, 5
	mov	dword [0x7004], 42
	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	retries := 0
	c.FaultHandler = func(cpu *CPU, f *vm.Fault) FaultAction {
		retries++
		if f.VA != 0x7004 || !f.Write {
			t.Fatalf("fault %+v", f)
		}
		// Repair the mapping after two retries.
		if retries == 2 {
			mem.badHi = 0
		}
		return FaultRetry
	}
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if c.Err() != nil || !c.Halted() {
		t.Fatalf("err=%v", c.Err())
	}
	if mem.r32(0x7004) != 42 {
		t.Fatal("store did not retry")
	}
	if retries != 2 {
		t.Fatalf("retries=%d", retries)
	}
	// Faulting attempts are not counted as executed instructions.
	if c.Counters().User != 2 {
		t.Fatalf("count=%d want 2", c.Counters().User)
	}
	if c.Counters().Faults != 2 {
		t.Fatalf("faults=%d", c.Counters().Faults)
	}
}

func TestFreezeDuringFault(t *testing.T) {
	mem := newFlatMem()
	mem.readOnly[5] = true // page 5 read-only (stack lives in page 7)
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	dword [0x5004], 1
	mov	eax, 9
	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	c.FaultHandler = func(cpu *CPU, f *vm.Fault) FaultAction {
		cpu.Freeze()
		eng.After(100*sim.Microsecond, func() {
			delete(mem.readOnly, 5)
			cpu.Thaw()
		})
		return FaultRetry
	}
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if c.Err() != nil || c.R[EAX] != 9 || mem.r32(0x5004) != 1 {
		t.Fatalf("freeze/thaw repair failed: err=%v eax=%d", c.Err(), c.R[EAX])
	}
	if eng.Now() < 100*sim.Microsecond {
		t.Fatal("repair delay not observed")
	}
}

func TestINTWithISAHandler(t *testing.T) {
	eng := sim.NewEngine()
	mem := newFlatMem()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	eax, 5
	int	64
	add	eax, 1
	hlt
handler:
	add	eax, 100	; kernel-mode work
	iret
`, nil)
	c.Load(p)
	c.InstallISR(64, "handler")
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if c.R[EAX] != 106 {
		t.Fatalf("eax=%d", c.R[EAX])
	}
	cnt := c.Counters()
	// User: mov, int, add = 3. Kernel: add, iret = 2.
	if cnt.User != 3 || cnt.Kernel != 2 || cnt.Traps != 1 {
		t.Fatalf("counters %+v", cnt)
	}
}

func TestINTWithGoSyscall(t *testing.T) {
	eng := sim.NewEngine()
	mem := newFlatMem()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	eax, 3
	int	0x40
	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	var gotVector int
	c.Syscall = func(cpu *CPU, vector int) {
		gotVector = vector
		cpu.R[EBX] = cpu.R[EAX] * 2
	}
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if gotVector != 0x40 || c.R[EBX] != 6 {
		t.Fatalf("syscall: vector=%d ebx=%d", gotVector, c.R[EBX])
	}
}

func TestIRQDispatchAndOrdering(t *testing.T) {
	eng := sim.NewEngine()
	mem := newFlatMem()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	ecx, 100
spin:	dec	ecx
	jnz	spin
	hlt
isr:
	inc	ebx
	iret
`, nil)
	c.Load(p)
	c.InstallISR(0x21, "isr")
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	// Raise two IRQs mid-run.
	eng.After(200*sim.Nanosecond, func() { c.RaiseIRQ(0x21) })
	eng.After(400*sim.Nanosecond, func() { c.RaiseIRQ(0x21) })
	eng.Drain(100000)
	if c.R[EBX] != 2 {
		t.Fatalf("isr ran %d times", c.R[EBX])
	}
	if c.R[ECX] != 0 {
		t.Fatal("main loop did not complete")
	}
	if c.Counters().IRQs != 2 {
		t.Fatalf("irq count %d", c.Counters().IRQs)
	}
}

func TestGoIRQHandler(t *testing.T) {
	eng := sim.NewEngine()
	mem := newFlatMem()
	c := NewCPU(eng, DefaultConfig(), mem)
	p := MustAssemble("t", `
main:
	mov	ecx, 50
spin:	dec	ecx
	jnz	spin
	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	fired := 0
	c.InstallGoIRQ(7, func(cpu *CPU) { fired++ })
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.After(100*sim.Nanosecond, func() { c.RaiseIRQ(7) })
	eng.Drain(100000)
	if fired != 1 {
		t.Fatalf("go irq fired %d", fired)
	}
}

func TestSaveRestoreContextSwitch(t *testing.T) {
	eng := sim.NewEngine()
	mem := newFlatMem()
	c := NewCPU(eng, DefaultConfig(), mem)
	p1 := MustAssemble("p1", `
main:
	mov	eax, 1
a:	add	eax, 1
	cmp	eax, 1000
	jne	a
	hlt
`, nil)
	c.Load(p1)
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	// Let it run a little, then switch out, run another program, switch
	// back.
	eng.RunFor(2 * sim.Microsecond)
	saved := c.Save()
	if saved.Halted {
		t.Fatal("p1 finished too fast for the test")
	}
	midway := c.R[EAX]

	p2 := MustAssemble("p2", `
main:
	mov	ebx, 7
	hlt
`, nil)
	c.Load(p2)
	c.R = [8]uint32{}
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if c.R[EBX] != 7 {
		t.Fatal("p2 failed")
	}

	c.Restore(saved)
	c.Resume()
	eng.Drain(1000000)
	if !c.Halted() || c.R[EAX] != 1000 {
		t.Fatalf("p1 after restore: eax=%d", c.R[EAX])
	}
	if midway >= 1000 {
		t.Fatal("test vacuous")
	}
}

func TestTimeAdvancesWithExecution(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), newFlatMem())
	p := MustAssemble("t", `
main:
	mov	ecx, 100
l:	dec	ecx
	jnz	l
	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	// ~201 instructions at 15ns each.
	if eng.Now() < 200*15*sim.Nanosecond {
		t.Fatalf("simulated time %v too small", eng.Now())
	}
}

func TestRunawayEIPAborts(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), newFlatMem())
	p := MustAssemble("t", "main:\n nop\n nop", nil) // no HLT: falls off the end
	c.Load(p)
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(100000)
	if c.Err() == nil {
		t.Fatal("running off the program end should abort")
	}
}

func TestCarryChainArithmetic(t *testing.T) {
	// 64-bit add via ADD/ADC.
	c := run(t, `
main:
	mov	eax, 0xffffffff	; low word
	mov	ebx, 1		; high word
	add	eax, 1		; -> 0, CF
	adc	ebx, 0		; -> 2
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 0 || c.R[EBX] != 2 {
		t.Fatalf("adc: %#x %#x", c.R[EAX], c.R[EBX])
	}
	// 64-bit subtract via SUB/SBB.
	c = run(t, `
main:
	mov	eax, 0		; low
	mov	ebx, 5		; high
	sub	eax, 1		; borrow
	sbb	ebx, 0		; -> 4
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 0xffffffff || c.R[EBX] != 4 {
		t.Fatalf("sbb: %#x %#x", c.R[EAX], c.R[EBX])
	}
}

func TestNegNot(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 5
	neg	eax
	mov	ebx, 0
	neg	ebx		; CF clear for zero
	mov	ecx, 0xf0f0f0f0
	not	ecx
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 0xfffffffb || c.R[ECX] != 0x0f0f0f0f {
		t.Fatalf("neg/not: %#x %#x", c.R[EAX], c.R[ECX])
	}
	if c.CF {
		t.Fatal("neg 0 must clear CF")
	}
}

func TestPushVariants(t *testing.T) {
	mem := newFlatMem()
	mem.w32(0x100, 777)
	c := run(t, `
main:
	push	42		; immediate
	push	dword [0x100]	; memory
	pop	eax
	pop	ebx
	hlt
`, mem, nil)
	if c.R[EAX] != 777 || c.R[EBX] != 42 {
		t.Fatalf("push variants: %d %d", c.R[EAX], c.R[EBX])
	}
}

func TestWordStores(t *testing.T) {
	mem := newFlatMem()
	c := run(t, `
main:
	mov	eax, 0x1234abcd
	mov	word [0x200], eax
	mov	byte [0x204], eax
	movzx	ebx, word [0x200]
	movzx	ecx, byte [0x204]
	hlt
`, mem, nil)
	if c.R[EBX] != 0xabcd || c.R[ECX] != 0xcd {
		t.Fatalf("word/byte stores: %#x %#x", c.R[EBX], c.R[ECX])
	}
	if mem.r32(0x200)&0xffff0000 != 0 {
		t.Fatal("word store spilled beyond 16 bits")
	}
}

func TestShiftByRegister(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 1
	mov	ecx, 4
	shl	eax, ecx
	hlt
`, newFlatMem(), nil)
	if c.R[EAX] != 16 {
		t.Fatalf("shl by reg: %d", c.R[EAX])
	}
}

func TestJSAndJNS(t *testing.T) {
	c := run(t, `
main:
	mov	eax, 1
	sub	eax, 2		; negative
	js	neg_taken
	hlt
neg_taken:
	mov	ebx, 1
	add	eax, 10		; positive
	jns	pos_taken
	hlt
pos_taken:
	mov	ecx, 1
	hlt
`, newFlatMem(), nil)
	if c.R[EBX] != 1 || c.R[ECX] != 1 {
		t.Fatal("sign jumps")
	}
}

func TestTakenBranchCostsMore(t *testing.T) {
	eng := sim.NewEngine()
	c := NewCPU(eng, DefaultConfig(), newFlatMem())
	p := MustAssemble("t", `
main:
	cmp	eax, 0
	jne	skip	; not taken (eax==0)
	nop
skip:	hlt
`, nil)
	c.Load(p)
	c.R[ESP] = 0x8000
	if err := c.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng.Drain(1000)
	notTaken := eng.Now()

	eng2 := sim.NewEngine()
	c2 := NewCPU(eng2, DefaultConfig(), newFlatMem())
	p2 := MustAssemble("t", `
main:
	cmp	eax, 0
	je	skip	; taken
	nop
skip:	hlt
`, nil)
	c2.Load(p2)
	c2.R[ESP] = 0x8000
	if err := c2.Start("main"); err != nil {
		t.Fatal(err)
	}
	eng2.Drain(1000)
	// The taken path skips the NOP (one instr fewer) yet pays the
	// branch penalty (+2 cycles), netting +1 cycle.
	if eng2.Now() <= notTaken-DefaultConfig().CycleTime {
		t.Fatalf("taken %v vs not-taken %v: branch penalty missing", eng2.Now(), notTaken)
	}
}
