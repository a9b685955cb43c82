package msg

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/nipt"
)

// The dominant outbound datapath of the whole simulator: a user store to
// an AU-mapped page, snooped off the Xpress bus, merged and packetized
// by the NIC, wormhole-routed, and deposited into the receiver's memory.
// Every word of every message crosses it, so it gets its own superblock
// terminator (fastStore) and a ci.sh zero-allocation guard.
const fusedStoreSrc = `
fill:
	mov	ecx, WORDS
	mov	eax, 0x01020304
floop:
	mov	[esi], eax
	add	esi, 4
	add	eax, 1
	dec	ecx
	jnz	floop
	hlt
`

// BenchmarkFusedStore drives 512 snooped word stores per op through the
// fused store dispatch: each loop iteration is one fastStore terminator
// plus a pure-uop run, end to end through NIC, mesh and remote deposit.
func BenchmarkFusedStore(b *testing.B) {
	p := NewPair(newEISA(), 0, 1)
	sbuf, _ := p.MapBuf("OUT", 1, 1, nipt.SingleWriteAU)
	p.SSyms["WORDS"] = 512
	p.Drain()
	prog := isa.MustAssembleCached("fused-store", fusedStoreSrc, p.SSyms)
	cpu := p.S.CPU
	p.S.K.BindProcess(p.PS)
	run := func() {
		cpu.Load(prog)
		cpu.R = [8]uint32{}
		cpu.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
		cpu.R[isa.ESI] = uint32(sbuf)
		if err := cpu.Start("fill"); err != nil {
			b.Fatal(err)
		}
		p.Drain()
		if !cpu.Halted() || cpu.Err() != nil {
			b.Fatalf("halted=%v err=%v", cpu.Halted(), cpu.Err())
		}
	}
	run() // warm caches, packet pool, trace cache
	perRun := cpu.Counters().Total()
	cpu.ResetCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(perRun)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}
