package msg

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/nipt"
	"repro/internal/vm"
)

// The full Figure 6 pipeline, in assembly, both CPUs running
// concurrently: a producer fills alternating buffers and publishes a
// size flag; a consumer validates each message, clears the flag (which
// propagates back as the consumed signal), and toggles. This is loop
// case 3 — all synchronization carried by messages — executed for many
// iterations rather than the single measured iteration of Table 1.

const producerLoop = `
prod:
	mov	ecx, ITERS
	mov	ebx, 1		; message value seed
ploop:
pwait:	mov	eax, [esi+FLAGOFF]	; wait: previous contents consumed
	test	eax, eax
	jnz	pwait
	mov	[esi], ebx	; produce a 16-byte message
	mov	eax, ebx
	add	eax, 100
	mov	[esi+4], eax
	add	eax, 100
	mov	[esi+8], eax
	add	eax, 100
	mov	[esi+12], eax
	mov	dword [esi+FLAGOFF], 16	; publish nbytes
	xor	esi, TOGGLE
	inc	ebx
	loop	ploop
	hlt
`

const consumerLoop = `
cons:
	mov	ecx, ITERS
	mov	ebx, 1
cloop:
cwait:	mov	eax, [edi+FLAGOFF]
	test	eax, eax
	jz	cwait
	cmp	eax, 16		; nbytes as published
	jne	fail
	mov	eax, [edi]	; validate the message body
	cmp	eax, ebx
	jne	fail
	mov	eax, [edi+12]
	mov	edx, ebx
	add	edx, 300
	cmp	eax, edx
	jne	fail
	mov	dword [edi+FLAGOFF], 0	; consume: propagates back
	xor	edi, TOGGLE
	inc	ebx
	loop	cloop
	hlt
fail:
	mov	dword [PRIV], 0xdead
	hlt
`

func TestISADoubleBufferLoopConcurrent(t *testing.T) {
	const iters = 40
	p := NewPair(newEISA(), 0, 1)
	sbuf, rbuf := p.MapBuf("BUF", 2, 2, nipt.SingleWriteAU)
	p.MapBack(sbuf, rbuf, 2, nipt.SingleWriteAU)
	for _, syms := range []map[string]int64{p.SSyms, p.RSyms} {
		syms["TOGGLE"] = 4096
		syms["FLAGOFF"] = flagOff
		syms["ITERS"] = iters
	}
	p.Drain()

	prod := isa.MustAssemble("producer", producerLoop, p.SSyms)
	cons := isa.MustAssemble("consumer", consumerLoop, p.RSyms)

	p.S.K.BindProcess(p.PS)
	p.S.CPU.Load(prod)
	p.S.CPU.R = [8]uint32{}
	p.S.CPU.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
	p.S.CPU.R[isa.ESI] = uint32(sbuf)
	if err := p.S.CPU.Start("prod"); err != nil {
		t.Fatal(err)
	}
	p.R.K.BindProcess(p.PR)
	p.R.CPU.Load(cons)
	p.R.CPU.R = [8]uint32{}
	p.R.CPU.R[isa.ESP] = uint32(p.RSyms["STKTOP"])
	p.R.CPU.R[isa.EDI] = uint32(rbuf)
	if err := p.R.CPU.Start("cons"); err != nil {
		t.Fatal(err)
	}

	if err := p.M.RunUntilIdle(100_000_000); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []*isa.CPU{p.S.CPU, p.R.CPU} {
		if !cpu.Halted() || cpu.Err() != nil {
			t.Fatalf("cpu did not finish cleanly: halted=%v err=%v eip=%d",
				cpu.Halted(), cpu.Err(), cpu.EIP())
		}
	}
	if mark := p.ReadReceiver(vm.VAddr(p.RSyms["PRIV"]), 4); mark[0] == 0xad {
		t.Fatal("consumer hit the fail path: message corrupted")
	}
	if p.S.CPU.R[isa.EBX] != iters+1 || p.R.CPU.R[isa.EBX] != iters+1 {
		t.Fatalf("iterations: producer ebx=%d consumer ebx=%d",
			p.S.CPU.R[isa.EBX], p.R.CPU.R[isa.EBX])
	}
}

// TestISADMABackoffPolling drives the §4.3 status-read protocol from
// assembly while a large transfer runs: the command-page read returns
// remaining<<1|match, so user code can watch the count fall and the
// address-match bit distinguish its own transfer.
func TestISADMABackoffPolling(t *testing.T) {
	p := NewPair(newEISA(), 0, 1)
	sbuf, _ := p.MapBuf("DBUF", 1, 1, nipt.DeliberateUpdate)
	p.GrantCmd(sbuf, 1)
	p.Drain()
	payload := make([]byte, 4096)
	p.WriteSender(sbuf, payload)
	p.Drain()

	// Start a full-page transfer, then poll: record the first status
	// value (remaining<<1|1) and spin until complete.
	src := `
poll:
	mov	edi, DBUF
	add	edi, CMDDELTA
	mov	ecx, 1024	; words: whole page
	xor	eax, eax
	lock cmpxchg [edi], ecx
	jnz	poll		; (engine free at start: not taken)
	mov	ebx, [edi]	; first status read while busy
spin:
	mov	eax, [edi]
	test	eax, eax
	jnz	spin		; backoff loop until complete
	hlt
`
	c := p.RunSender("dma-poll", src, "poll", nil)
	if c.User == 0 {
		t.Fatal("no instructions counted")
	}
	status := p.S.CPU.R[isa.EBX]
	if status&1 != 1 {
		t.Fatalf("address-match bit clear in first status %#x", status)
	}
	if remaining := status >> 1; remaining == 0 || remaining > 1024 {
		t.Fatalf("remaining %d out of range", remaining)
	}
	p.Drain()
	// Engine idle at the end.
	if p.S.NIC.DMABusy() {
		t.Fatal("engine busy after drain")
	}
}
