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

// ticker is an engine event every period until cpu halts. Each time it
// fires it also re-arms once at the same instant, behind whatever is
// already due then, so at some instants an event is pending at Now when
// the CPU fires and a pure run must yield after its first op.
type ticker struct {
	eng    *sim.Engine
	cpu    *CPU
	period sim.Time
	again  bool
}

func (t *ticker) Fire() {
	if t.cpu.Halted() {
		return
	}
	t.again = !t.again
	if t.again {
		t.eng.ScheduleAfter(0, t)
		return
	}
	t.eng.ScheduleAfter(t.period, t)
}

// benchStep measures whole runs of the loop at the given batch quantum,
// beside a ticker of the given period when it is positive. ci.sh greps
// the benchmarks for "0 allocs/op": the entire step path — dispatch,
// superblock lookup, execute, batch bookkeeping, the yields on the
// quantum and on events — must stay off the heap.
func benchStep(b *testing.B, maxBatch int, tick sim.Time) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxBatch = maxBatch
	c := NewCPU(eng, cfg, newFlatMem())
	c.Load(MustAssemble("bench", benchLoop, map[string]int64{"ITERS": benchIters}))
	tk := &ticker{eng: eng, cpu: c, period: tick}
	run := func() {
		c.R = [8]uint32{}
		c.R[ESP] = 0x8000
		if err := c.Start("main"); err != nil {
			b.Fatal(err)
		}
		if tick > 0 {
			eng.ScheduleAfter(tick, tk)
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

func BenchmarkStepPerInstruction(b *testing.B) { benchStep(b, 1, 0) }

// BenchmarkTraceDispatch is the headline superblock number: the same
// workload on the shipping path at the default quantum, whose edges
// fall inside the loop's 5-op pure runs.
func BenchmarkTraceDispatch(b *testing.B) { benchStep(b, 64, 0) }

// BenchmarkTraceDispatchEvents is BenchmarkTraceDispatch beside an
// event every 389 ns, so pure runs also end where an event falls.
func BenchmarkTraceDispatchEvents(b *testing.B) { benchStep(b, 64, 389*sim.Nanosecond) }
