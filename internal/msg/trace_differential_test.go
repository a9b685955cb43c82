package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Differential tests for the superblock trace cache, which the shipping
// CPU path (Config.CPU.MaxBatch > 1) always uses: like batching, it is a
// pure simulator optimization, so every simulated result must be
// bit-identical to per-instruction stepping. The reference for each
// suite is batchCfg(1) — MaxBatch=1 disables batching and trace
// dispatch at once, leaving the pristine interpreter — and the shipping
// path is
// batchCfg(64), the default quantum. Table 1, the NX/2 baseline and the
// two-CPU concurrent loop are pinned on the shipping path by the batch
// suites (batch_differential_test.go), which run quantum 64 too.

// fastPath names the shipping path in subtest names.
const fastPath = "fast-path"

// runPingPongPair drives the concurrent ping-pong (both CPUs spinning on
// AU-mapped flags) on a prepared pair and snapshots the machine state.
func runPingPongPair(t *testing.T, p *Pair) pairRun {
	t.Helper()
	const rounds = 25
	pout, _ := p.MapBuf("FWD", 1, 1, nipt.SingleWriteAU)
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
	p.RSyms["QIN"] = p.RSyms["FWD"]
	p.RSyms["QOUT"] = int64(qout)
	p.RSyms["ROUNDS"] = rounds
	p.Drain()

	pingProg := isa.MustAssemble("ping", pingSrc, p.SSyms)
	pongProg := isa.MustAssemble("pong", pongSrc, p.RSyms)

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
	if err := p.M.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []*isa.CPU{p.S.CPU, p.R.CPU} {
		if !cpu.Halted() || cpu.Err() != nil {
			t.Fatalf("cpu did not finish cleanly: halted=%v err=%v eip=%d",
				cpu.Halted(), cpu.Err(), cpu.EIP())
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

func runPingPong(t *testing.T, cfg core.Config) pairRun {
	t.Helper()
	return runPingPongPair(t, NewPair(core.New(cfg), 0, 1))
}

// TestTraceDifferentialPingPong pins the shipping path on the workload
// that is almost entirely polling: both CPUs wait on AU-propagated
// flags for 25 round trips.
func TestTraceDifferentialPingPong(t *testing.T) {
	want := runPingPong(t, batchCfg(1))
	t.Run(fastPath, func(t *testing.T) {
		if got := runPingPong(t, batchCfg(64)); got != want {
			t.Fatalf("diverged:\n got  %+v\n want %+v", got, want)
		}
	})
}

// TestTraceMetricsOnChangesNothing is the explicit observability
// contract: attaching the metrics registry to the shipping path (batching
// and trace dispatch) changes no simulated result.
func TestTraceMetricsOnChangesNothing(t *testing.T) {
	plain := batchCfg(64)
	want := runPingPong(t, plain)
	metered := plain
	metered.Metrics = true
	if got := runPingPong(t, metered); got != want {
		t.Fatalf("metrics on diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestTraceRecorderOnChangesNothing extends the observability contract
// to the flight recorder: sampling the registry at a fixed cadence over
// the ISA-level ping-pong changes no simulated result.
func TestTraceRecorderOnChangesNothing(t *testing.T) {
	plain := batchCfg(64)
	plain.Metrics = true
	want := runPingPong(t, plain)
	armed := plain
	armed.Recorder = obs.RecorderConfig{Interval: 5 * sim.Microsecond, Capacity: 128}
	if got := runPingPong(t, armed); got != want {
		t.Fatalf("recorder armed diverged:\n got  %+v\n want %+v", got, want)
	}
}

// dmaPollRun snapshots the §4.3 status-poll workload: each poll of the
// command page is an uncacheable bus read, so the batch must yield
// around it — and still agree exactly.
type dmaPollRun struct {
	End    sim.Time
	Counts Counts
	Status uint32
	NIC    nic.Stats
}

func runDMAPoll(t *testing.T, cfg core.Config) dmaPollRun {
	t.Helper()
	p := NewPair(core.New(cfg), 0, 1)
	sbuf, _ := p.MapBuf("DBUF", 1, 1, nipt.DeliberateUpdate)
	p.GrantCmd(sbuf, 1)
	p.Drain()
	p.WriteSender(sbuf, make([]byte, 4096))
	p.Drain()
	src := `
poll:
	mov	edi, DBUF
	add	edi, CMDDELTA
	mov	ecx, 1024
	xor	eax, eax
	lock cmpxchg [edi], ecx
	jnz	poll
	mov	ebx, [edi]
spin:
	mov	eax, [edi]
	test	eax, eax
	jnz	spin
	hlt
`
	c := p.RunSender("dma-poll", src, "poll", nil)
	p.Drain()
	return dmaPollRun{
		End: p.M.Eng.Now(), Counts: c,
		Status: p.S.CPU.R[isa.EBX], NIC: p.S.NIC.Stats(),
	}
}

// TestTraceDifferentialDMAPoll: the command-space spin loop reads
// uncacheable DMA status, so the shipping path must retire the same
// literal poll sequence.
func TestTraceDifferentialDMAPoll(t *testing.T) {
	want := runDMAPoll(t, batchCfg(1))
	if got := runDMAPoll(t, batchCfg(64)); got != want {
		t.Fatalf("%s diverged:\n got  %+v\n want %+v", fastPath, got, want)
	}
}

// TestTraceDifferentialFaultsArmed runs the shipping path under the
// fault injector: drop and corrupt with the reliable layer exercise
// retransmission in the kernel-ring baseline, which must stay
// bit-identical per config.
func TestTraceDifferentialFaultsArmed(t *testing.T) {
	t.Run("drops-baseline", func(t *testing.T) {
		lossy := func(batch int) core.Config {
			cfg := batchCfg(batch)
			cfg.Faults = fault.Config{Seed: 11, DropPPM: 50_000, CorruptPPM: 20_000, Reliable: true}
			return cfg
		}
		want := MeasureBaseline(lossy(1))
		if got := MeasureBaseline(lossy(64)); got != want {
			t.Fatalf("%s diverged under drops:\n got  %+v\n want %+v", fastPath, got, want)
		}
	})
}

// TestTraceDifferentialResetReuse: a machine reused via Reset must
// replay the shipping-path run bit-identically — superblocks must not
// leak across Reset.
func TestTraceDifferentialResetReuse(t *testing.T) {
	cfg := batchCfg(64)
	fresh := runPingPong(t, cfg)
	m := core.New(cfg)
	first := runPingPongPair(t, NewPair(m, 0, 1))
	if first != fresh {
		t.Fatalf("first run on reused machine diverged:\n got  %+v\n want %+v", first, fresh)
	}
	m.Reset()
	again := runPingPongPair(t, NewPair(m, 0, 1))
	// The engine clock restarts at zero after Reset, so the runs must
	// match in full — including End.
	if again != fresh {
		t.Fatalf("run after Reset diverged:\n got  %+v\n want %+v", again, fresh)
	}
}

// TestTraceCacheHitRateFloor asserts the trace cache actually earns its
// keep on the Table 1 §5 loop workload: after the warm-up pass of the
// concurrent producer/consumer pipeline, nearly every dispatch must hit
// a built superblock.
func TestTraceCacheHitRateFloor(t *testing.T) {
	cfg := batchCfg(64)
	cfg.Metrics = true
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
	if err := p.M.RunUntilIdle(100_000_000); err != nil {
		t.Fatal(err)
	}

	snap := p.M.Obs.Snapshot()
	var hits, misses uint64
	for _, n := range snap.Nodes {
		hits += n.Counters[obs.CtrTraceHits.String()]
		misses += n.Counters[obs.CtrTraceMisses.String()]
	}
	if hits+misses == 0 {
		t.Fatal("trace cache recorded no dispatches")
	}
	rate := float64(hits) / float64(hits+misses)
	if rate < 0.9 {
		t.Fatalf("trace-cache hit rate %.3f below 0.9 floor (hits=%d misses=%d)", rate, hits, misses)
	}
	t.Logf("trace-cache hit rate %.4f (hits=%d misses=%d)", rate, hits, misses)
}

// TestRemapInvalidatesStaleTranslation is the regression test for
// cached-translation invalidation: a store warms the micro-TLB for a
// page, the page is then remapped to a different frame, and the next
// store must land in the new frame — never through the stale cached
// translation into the old one. The harness accessors (Node.UserWrite32,
// UserRead32, UserReadBytes) share the same TLB, so the same holds for
// them, and a protection change or unmap must still fault even though
// the page's translation is cached.
func TestRemapInvalidatesStaleTranslation(t *testing.T) {
	p := NewPair(newEISA(), 0, 1)
	va, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := p.PS.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	p.Drain()
	oldPTE, ok := p.PS.AS.Lookup(va.Page())
	if !ok {
		t.Fatal("no PTE for target page")
	}
	newPTE, ok := p.PS.AS.Lookup(spare.Page())
	if !ok {
		t.Fatal("no PTE for spare page")
	}
	p.SSyms["TGT"] = int64(va)

	// Warm the cached translation with a store through the old frame.
	p.RunSender("warm", "warm:\n\tmov dword [TGT], 0x11111111\n\thlt\n", "warm", nil)
	if v, _ := p.S.Cache.Load(oldPTE.Frame.Addr(0), 4); v != 0x11111111 {
		t.Fatalf("warm store missed old frame: %#x", v)
	}

	// Remap the virtual page onto the spare page's frame. The page-table
	// generation bump must invalidate the warm TLB entry.
	p.PS.AS.Map(va.Page(), vm.PTE{Frame: newPTE.Frame, Present: true, Writable: true})
	p.RunSender("poke", "poke:\n\tmov dword [TGT], 0x22222222\n\thlt\n", "poke", nil)

	if v, _ := p.S.Cache.Load(newPTE.Frame.Addr(0), 4); v != 0x22222222 {
		t.Fatalf("store after remap missed the new frame: got %#x", v)
	}
	if v, _ := p.S.Cache.Load(oldPTE.Frame.Addr(0), 4); v != 0x11111111 {
		t.Fatalf("store after remap hit the stale frame: old frame now %#x", v)
	}

	// Harness path. A UserReadBytes warms the TLB with the new frame; after
	// a remap back onto the old frame it must read the old frame's bytes.
	buf := make([]byte, 4)
	if err := p.S.UserReadBytes(p.PS, va, buf); err != nil || buf[0] != 0x22 {
		t.Fatalf("UserReadBytes before remap: %x, %v", buf, err)
	}
	p.PS.AS.Map(va.Page(), oldPTE)
	if err := p.S.UserReadBytes(p.PS, va, buf); err != nil || buf[0] != 0x11 {
		t.Fatalf("UserReadBytes after remap read %x (%v), want the old frame's 11111111", buf, err)
	}

	wantFault := func(what string, err error, reason vm.FaultReason) {
		t.Helper()
		f, ok := err.(*vm.Fault)
		if !ok || f.Reason != reason {
			t.Fatalf("%s: got %v, want a %v fault", what, err, reason)
		}
	}
	// A UserWrite32 fills a writable entry; a later SetWritable(false)
	// must still make the next write fault.
	if err := p.S.UserWrite32(p.PS, va, 0x33333333); err != nil {
		t.Fatalf("UserWrite32 to a writable page: %v", err)
	}
	p.PS.AS.SetWritable(va.Page(), false)
	wantFault("UserWrite32 after SetWritable(false)", p.S.UserWrite32(p.PS, va, 0x44444444), vm.Protection)
	// An entry filled by a read of the read-only page must not let a
	// write through either.
	if v, err := p.S.UserRead32(p.PS, va); err != nil || v != 0x33333333 {
		t.Fatalf("UserRead32 of a read-only page: %#x, %v", v, err)
	}
	wantFault("UserWrite32 after a read-only fill", p.S.UserWrite32(p.PS, va, 0x44444444), vm.Protection)
	// After Unmap both accessors miss the page entirely.
	p.PS.AS.Unmap(va.Page())
	wantFault("UserWrite32 after Unmap", p.S.UserWrite32(p.PS, va, 0x44444444), vm.NotPresent)
	if _, err := p.S.UserRead32(p.PS, va); err == nil {
		t.Fatal("UserRead32 after Unmap succeeded")
	}
	if v, _ := p.S.Cache.Load(oldPTE.Frame.Addr(0), 4); v != 0x33333333 {
		t.Fatalf("a faulting write reached memory: old frame now %#x", v)
	}
}
