package msg

import (
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Differential tests for batched CPU interpretation (Config.CPU.MaxBatch):
// batching is a pure simulator optimization, so every simulated result —
// instruction counters, NIC/bus/cache statistics, register files, final
// simulated time — must be bit-identical to per-instruction stepping at
// any batch quantum. Engine event counts (Fired, MaxPending) legitimately
// differ between modes — fewer, longer events is the whole point — and are
// deliberately not compared.
//
// A quantum above 1 is also the shipping path: it turns on the
// superblock trace cache, and MaxBatch=1 turns off both at once. These
// suites therefore pin it too, at the default quantum 64, on Table 1,
// on the NX/2 baseline (with its kcrecv_spin receive wait) and on the
// two-CPU concurrent loop; trace_differential_test.go covers the
// poll-heavy and fault-armed workloads.

// batchCfg returns the 2-node pair config with the given batch quantum.
func batchCfg(maxBatch int) core.Config {
	cfg := core.ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.CPU.MaxBatch = maxBatch
	return cfg
}

// newEISA boots a fresh 2-node EISA-prototype machine at the default
// CPU config.
func newEISA() *core.Machine { return core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype)) }

// batchVariants: 0 and 1 both select per-instruction stepping, 3 forces
// frequent quantum breaks mid-run, 64 is the default shipping quantum.
var batchVariants = []int{0, 1, 3, 64}

// TestBatchDifferentialTable1 pins every Table 1 row (including the NX/2
// csend/crecv pair) across batch quanta, and with metrics on top.
func TestBatchDifferentialTable1(t *testing.T) {
	want := MeasureTable1(batchCfg(1))
	for _, mb := range batchVariants {
		if got := MeasureTable1(batchCfg(mb)); !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxBatch=%d changed Table 1:\n got  %+v\n want %+v", mb, got, want)
		}
	}
	instr := batchCfg(64)
	instr.Metrics = true
	if got := MeasureTable1(instr); !reflect.DeepEqual(got, want) {
		t.Fatalf("batching with metrics on changed Table 1:\n got  %+v\n want %+v", got, want)
	}
}

// TestBatchDifferentialBaseline pins the kernel-mediated NX/2 baseline,
// the heaviest ISA workload in the package: traps, IRQs, context between
// user and kernel mode, the transport ring and the kcrecv_spin receive
// wait all in one run.
func TestBatchDifferentialBaseline(t *testing.T) {
	want := MeasureBaseline(batchCfg(1))
	for _, mb := range []int{3, 64} {
		if got := MeasureBaseline(batchCfg(mb)); got != want {
			t.Fatalf("MaxBatch=%d changed baseline:\n got  %+v\n want %+v", mb, got, want)
		}
	}
}

// pairRun snapshots every observable statistic of one concurrent-loop
// run. The struct is comparable, so equality is one ==.
type pairRun struct {
	End            sim.Time
	SCPU, RCPU     isa.Counters
	SRegs, RRegs   [8]uint32
	SNIC, RNIC     nic.Stats
	SXbus, RXbus   bus.XpressStats
	SCache, RCache cache.Stats
}

// runConcurrentLoop drives the Figure 6 case-3 pipeline with both CPUs
// live — the workload where batching on two processors must interleave
// exactly as per-instruction stepping does.
func runConcurrentLoop(t *testing.T, cfg core.Config) pairRun {
	t.Helper()
	const iters = 40
	p := NewPair(core.New(cfg), 0, 1)
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
	p.M.RunUntilIdle(100_000_000)
	for _, cpu := range []*isa.CPU{p.S.CPU, p.R.CPU} {
		if !cpu.Halted() || cpu.Err() != nil {
			t.Fatalf("cpu did not finish cleanly: halted=%v err=%v", cpu.Halted(), cpu.Err())
		}
	}
	return pairRun{
		End:  p.M.Eng.Now(),
		SCPU: p.S.CPU.Counters(), RCPU: p.R.CPU.Counters(),
		SRegs: p.S.CPU.R, RRegs: p.R.CPU.R,
		SNIC: p.S.NIC.Stats(), RNIC: p.R.NIC.Stats(),
		SXbus: p.S.Xbus.Stats(), RXbus: p.R.Xbus.Stats(),
		SCache: p.S.Cache.Stats(), RCache: p.R.Cache.Stats(),
	}
}

// TestBatchDifferentialConcurrentLoop compares the complete observable
// machine state of the two-CPU pipeline across batch quanta.
func TestBatchDifferentialConcurrentLoop(t *testing.T) {
	want := runConcurrentLoop(t, batchCfg(1))
	for _, mb := range batchVariants {
		if got := runConcurrentLoop(t, batchCfg(mb)); got != want {
			t.Fatalf("MaxBatch=%d diverged:\n got  %+v\n want %+v", mb, got, want)
		}
	}
	instr := batchCfg(64)
	instr.Metrics = true
	if got := runConcurrentLoop(t, instr); got != want {
		t.Fatalf("batching with metrics on diverged:\n got  %+v\n want %+v", got, want)
	}
}
