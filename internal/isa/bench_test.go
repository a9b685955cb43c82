package isa

import (
	"testing"

	"repro/internal/sim"
)

// Instruction-bound ALU loop: the workload batching exists for. One run
// retires ~6*benchIters+3 instructions with no bus traffic, so events
// fired per run ≈ instructions in per-instruction mode and collapses to
// ~runs/quantum in batched mode.
const benchIters = 1000

const benchLoop = `
main:
	mov	ecx, ITERS
	xor	ebx, ebx
bloop:
	mov	eax, ebx
	add	eax, 12345
	xor	eax, 0x5a5a
	add	ebx, 1
	dec	ecx
	jnz	bloop
	hlt
`

// benchStep measures whole runs of the loop at the given batch quantum.
// ci.sh greps both benchmarks for "0 allocs/op": the entire step path —
// dispatch, superblock lookup, execute, batch bookkeeping — must stay
// off the heap.
func benchStep(b *testing.B, maxBatch int) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxBatch = maxBatch
	c := NewCPU(eng, cfg, newFlatMem())
	c.Load(MustAssemble("bench", benchLoop, map[string]int64{"ITERS": benchIters}))
	run := func() {
		c.R = [8]uint32{}
		c.R[ESP] = 0x8000
		if err := c.Start("main"); err != nil {
			b.Fatal(err)
		}
		eng.Drain(100_000_000)
		if !c.Halted() || c.Err() != nil {
			b.Fatalf("halted=%v err=%v", c.Halted(), c.Err())
		}
	}
	run() // warm the event heap, assembler cache and trace cache
	perRun := c.Counters().Total()
	c.ResetCounters()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	b.ReportMetric(float64(perRun)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkStepPerInstruction(b *testing.B) { benchStep(b, 1) }

// BenchmarkTraceDispatch is the headline superblock number: the same
// workload on the shipping path at the default quantum.
func BenchmarkTraceDispatch(b *testing.B) { benchStep(b, 64) }
