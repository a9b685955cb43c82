package msg

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Both CPUs execute ISA programs *concurrently* on the discrete-event
// clock: the pinger stores a value through its mapping and spins on the
// echo; the ponger spins on arrival and echoes back through the reverse
// mapping. This exercises real spinning (unlike the Table 1 runs, which
// arrange first-try success), interleaved execution, and bidirectional
// AU mappings, with no kernel involvement inside the loop.

const pingSrc = `
ping:
	mov	ecx, ROUNDS
	mov	ebx, 1
ploop:
	mov	[POUT], ebx	; propagate the ping value
pwait:
	mov	eax, [PECHO]	; wait for the echo
	cmp	eax, ebx
	jne	pwait
	inc	ebx
	loop	ploop
	hlt
`

const pongSrc = `
pong:
	mov	ecx, ROUNDS
	mov	ebx, 1
qwait:
	mov	eax, [QIN]	; wait for the ping
	cmp	eax, ebx
	jne	qwait
	mov	[QOUT], eax	; echo it back
	inc	ebx
	loop	qwait
	hlt
`

func TestConcurrentISAPingPong(t *testing.T) {
	const rounds = 25
	p := NewPair(newEISA(), 0, 1)
	// Forward: sender's POUT page -> receiver's QIN page.
	pout, _ := p.MapBuf("IGNORED1", 1, 1, nipt.SingleWriteAU)
	// Reverse: receiver's QOUT page -> sender's PECHO page.
	qout, err := p.PR.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	pecho, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, fut := p.R.K.Map(p.PR, qout, 4096, p.S.ID, p.PS.PID, pecho, nipt.SingleWriteAU); true {
		if err := p.M.Await(fut); err != nil {
			t.Fatal(err)
		}
	}
	p.SSyms["POUT"] = int64(pout)
	p.SSyms["PECHO"] = int64(pecho)
	p.SSyms["ROUNDS"] = rounds
	p.RSyms["QIN"] = p.RSyms["IGNORED1"] // receiver-side address of the forward buffer
	p.RSyms["QOUT"] = int64(qout)
	p.RSyms["ROUNDS"] = rounds
	p.Drain()

	pingProg := isa.MustAssemble("ping", pingSrc, p.SSyms)
	pongProg := isa.MustAssemble("pong", pongSrc, p.RSyms)

	// Start BOTH CPUs before running the clock.
	p.S.K.BindProcess(p.PS)
	p.S.CPU.Load(pingProg)
	p.S.CPU.R = [8]uint32{}
	p.S.CPU.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
	p.S.CPU.ResetCounters()
	if err := p.S.CPU.Start("ping"); err != nil {
		t.Fatal(err)
	}
	p.R.K.BindProcess(p.PR)
	p.R.CPU.Load(pongProg)
	p.R.CPU.R = [8]uint32{}
	p.R.CPU.R[isa.ESP] = uint32(p.RSyms["STKTOP"])
	p.R.CPU.ResetCounters()
	if err := p.R.CPU.Start("pong"); err != nil {
		t.Fatal(err)
	}

	start := p.M.Eng.Now()
	if err := p.M.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	elapsed := p.M.Eng.Now() - start

	for _, cpu := range []*isa.CPU{p.S.CPU, p.R.CPU} {
		if !cpu.Halted() {
			t.Fatalf("cpu did not halt (eip=%d)", cpu.EIP())
		}
		if err := cpu.Err(); err != nil {
			t.Fatal(err)
		}
	}
	// Both counters ended at rounds+1.
	if p.S.CPU.R[isa.EBX] != rounds+1 || p.R.CPU.R[isa.EBX] != rounds+1 {
		t.Fatalf("ebx: ping=%d pong=%d", p.S.CPU.R[isa.EBX], p.R.CPU.R[isa.EBX])
	}
	// The final values are in both memories.
	if v := p.ReadSender(pecho, 4); v[0] != rounds {
		t.Fatalf("final echo %d", v[0])
	}
	// Spinning really happened: far more instructions than the fast path.
	sc, rc := p.S.CPU.Counters(), p.R.CPU.Counters()
	if sc.User < 4*rounds || rc.User < 4*rounds {
		t.Fatalf("suspiciously few instructions: %d/%d", sc.User, rc.User)
	}
	rtt := elapsed / sim.Time(rounds)
	// Each round is two one-way AU latencies (~1.8 us each on EISA) plus
	// spin granularity; sanity-band it.
	if rtt < 2*sim.Microsecond || rtt > 20*sim.Microsecond {
		t.Fatalf("per-round RTT %v outside sanity band", rtt)
	}
	t.Logf("concurrent ISA ping-pong: %d rounds, RTT %v, instructions %d+%d",
		rounds, rtt, sc.User, rc.User)
}
