package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/sim"
)

// A configured injector whose rates are all zero must not perturb the
// simulation at all: an injector-carrying machine and a fault-free one
// report bit-identical experiment results. This is the "zero-fault
// configs are bit-identical to the seed" guarantee — the fault hooks
// may exist on the hot paths, but they must be pure observers until a
// rate or plan is nonzero.
func TestZeroRateFaultsBitIdentical(t *testing.T) {
	for _, gen := range []nic.Generation{nic.GenEISAPrototype, nic.GenXpress} {
		t.Run(gen.String(), func(t *testing.T) {
			clean := ConfigFor(2, 2, gen)
			armed := clean
			armed.Faults = fault.Config{Seed: 42} // injector present, every rate zero

			if a, b := MeasureStoreLatency(New(clean), 0, 3), MeasureStoreLatency(New(armed), 0, 3); a != b {
				t.Fatalf("latency diverged:\nclean: %+v\narmed: %+v", a, b)
			}
			ba := MeasureDeliberateBandwidth(New(clean), 0, 1, 1024, 64*1024)
			bb := MeasureDeliberateBandwidth(New(armed), 0, 1, 1024, 64*1024)
			if ba != bb {
				t.Fatalf("bandwidth diverged:\nclean: %+v\narmed: %+v", ba, bb)
			}
		})
	}
}

func faultyCfg(dropPPM uint32) Config {
	cfg := ConfigFor(2, 1, nic.GenXpress)
	cfg.Faults = fault.Config{Seed: 1729, DropPPM: dropPPM, Reliable: true}
	return cfg
}

// A lossy run is a deterministic function of the config: same seed,
// same rates, same results — field for field, including every recovery
// counter. The second plan arms every rate at once: drops, corruption,
// duplication and Outgoing-FIFO stalls.
func TestFaultyTransferDeterministic(t *testing.T) {
	mixed := faultyCfg(60_000)
	mixed.Faults.CorruptPPM, mixed.Faults.DupPPM, mixed.Faults.StallPPM = 40_000, 20_000, 30_000
	for _, cfg := range []Config{faultyCfg(25_000), mixed} {
		a := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
		b := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
		if a != b {
			t.Fatalf("two identical faulty runs diverged:\na: %+v\nb: %+v", a, b)
		}
		if a.Err != "" || a.FaultDrops == 0 || a.Retransmits == 0 {
			t.Fatalf("%d ppm drop rate injected nothing or failed: %+v", cfg.Faults.DropPPM, a)
		}
	}
}

// Reset must replay the identical fault pattern: a reused machine
// reports the same FaultPoint as a fresh one, even though the injector,
// the retransmit queues and the per-flow sequence state were all dirty.
func TestFaultyResetMatchesFresh(t *testing.T) {
	cfg := faultyCfg(10_000)
	fresh := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 32*1024)

	m := New(cfg)
	MeasureFaultyTransfer(m, 0, 1, 512, 16*1024) // dirty the flows
	m.Reset()
	reused := MeasureFaultyTransfer(m, 0, 1, 1024, 32*1024)
	if fresh != reused {
		t.Fatalf("faulty run after Reset diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// The fault sweep parallel path must match sequential byte for byte
// (run under -race in CI, this doubles as the data-race proof for the
// injector: decisions are stateless, so worker order cannot matter).
func TestFaultSweepParallelMatchesSequential(t *testing.T) {
	cfg := faultyCfg(0)
	drops := []uint32{0, 5_000, 10_000, 25_000, 50_000}
	seq := FaultSweep(cfg, drops, 1024, 32*1024, 1)
	par := FaultSweep(cfg, drops, 1024, 32*1024, 3)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("fault sweep diverged:\nseq: %+v\npar: %+v", seq, par)
	}
	for i, p := range seq {
		if p.Err != "" {
			t.Fatalf("sweep point %d failed: %s", i, p.Err)
		}
		if p.GoodBytes != 32*1024 {
			t.Fatalf("sweep point %d lost payload: %+v", i, p)
		}
	}
}

// Reliable delivery must degrade gracefully: at a 1% drop rate every
// payload byte still arrives exactly once (retransmits fill the gaps,
// the sequence discipline drops the duplicates) and the run terminates
// without a machine check.
func TestGracefulUnderLoss(t *testing.T) {
	res := MeasureFaultyTransfer(New(faultyCfg(10_000)), 0, 1, 1024, 128*1024)
	if res.Err != "" {
		t.Fatalf("1%% loss escalated to failure: %s", res.Err)
	}
	if res.GoodBytes != 128*1024 {
		t.Fatalf("goodput lost payload: got %d of %d bytes (%+v)",
			res.GoodBytes, 128*1024, res)
	}
	if res.FaultDrops == 0 {
		t.Fatal("1% drop rate never fired")
	}
	if res.Retransmits < res.FaultDrops {
		t.Fatalf("%d drops but only %d retransmits", res.FaultDrops, res.Retransmits)
	}
}

// A transient link outage heals: packets lost while the link is down
// are retransmitted after the repair and the stream completes in full.
func TestLinkOutageHeals(t *testing.T) {
	cfg := faultyCfg(0)
	cfg.Faults.LinkFrom, cfg.Faults.LinkTo = 0, 1
	cfg.Faults.LinkDownAt = 50 * sim.Microsecond
	cfg.Faults.LinkRepairAt = 250 * sim.Microsecond
	res := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
	if res.Err != "" {
		t.Fatalf("transient outage escalated to failure: %s", res.Err)
	}
	if res.GoodBytes != 64*1024 {
		t.Fatalf("stream incomplete after repair: %+v", res)
	}
	if res.FaultDrops == 0 {
		t.Fatalf("outage window dropped nothing: %+v", res)
	}
}

// A node crash is not recoverable: the sender burns its retry budget
// against the dead NIC and the run ends in a structured machine check
// (surfaced through the engine, not a panic) naming the retry budget.
func TestNodeCrashEscalatesToMachineCheck(t *testing.T) {
	cfg := faultyCfg(0)
	cfg.Faults.RetryBudget = 4 // fail fast: 4 timeouts, not 16
	cfg.Faults.Nodes[0] = fault.NodeFault{Node: 1, Kind: fault.NodeCrash, At: 300 * sim.Microsecond}
	res := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 4*1024*1024)
	if res.Err == "" {
		t.Fatalf("crashed receiver did not fail the run: %+v", res)
	}
	if !strings.Contains(res.Err, fault.CheckRetryBudget.String()) {
		t.Fatalf("failure %q is not a retry-budget machine check", res.Err)
	}

	// The same plan through the raw machine surfaces as an error from
	// RunUntilIdle that errors.As recognizes.
	m := New(cfg)
	if err := m.RunUntilIdle(ExperimentEventBudget); err != nil {
		// The crash alone (no traffic) must not fail the machine.
		t.Fatalf("idle machine with crash plan failed: %v", err)
	}
}

// A frozen CPU pauses interpretation but thaws without damage: the
// machine still quiesces and a freeze window alone never raises a
// machine check.
func TestNodeFreezeThaws(t *testing.T) {
	cfg := faultyCfg(0)
	cfg.Faults.Nodes[0] = fault.NodeFault{
		Node: 1, Kind: fault.NodeFreeze,
		At: 20 * sim.Microsecond, Until: 80 * sim.Microsecond,
	}
	res := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 32*1024)
	if res.Err != "" {
		t.Fatalf("freeze window failed the run: %s", res.Err)
	}
	if res.GoodBytes != 32*1024 {
		t.Fatalf("freeze window lost payload: %+v", res)
	}
}
