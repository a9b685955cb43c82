package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/obs"
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
// counter. The second plan arms both rates at once, drops and
// corruption, and its retransmits must also land duplicates that the
// receiver's sequence check discards.
func TestFaultyTransferDeterministic(t *testing.T) {
	mixed := faultyCfg(60_000)
	mixed.Faults.CorruptPPM = 40_000
	for _, cfg := range []Config{faultyCfg(25_000), mixed} {
		a := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
		b := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
		if a != b {
			t.Fatalf("two identical faulty runs diverged:\na: %+v\nb: %+v", a, b)
		}
		if a.Err != "" || a.FaultDrops == 0 || a.Retransmits == 0 {
			t.Fatalf("%d ppm drop rate injected nothing or failed: %+v", cfg.Faults.DropPPM, a)
		}
		if cfg == mixed && (a.Corrupts == 0 || a.DupDrops == 0) {
			t.Fatalf("mixed plan corrupted nothing or discarded no duplicate: %+v", a)
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

// A fault plan that stops the set-up itself is a failed point, not a
// panic: at 100% loss the map RPC exhausts its retry budget, and the
// machine check comes back in Err like one raised mid-stream.
func TestFaultyTransferSetupFailureIsErr(t *testing.T) {
	res := MeasureFaultyTransfer(New(faultyCfg(1_000_000)), 0, 1, 1024, 4096)
	if !strings.Contains(res.Err, "map failed") || !strings.Contains(res.Err, fault.CheckRetryBudget.String()) {
		t.Fatalf("100%% loss: Err = %q, want the map's retry-budget machine check", res.Err)
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

// A loss sweep re-aims one machine per worker across its drop rates
// instead of building one per point: each point, and a last one that
// also changes the corrupt rate, must equal the same measurement on a
// machine built fresh from that point's config, every FaultPoint field
// included, with metrics and the flight recorder on.
func TestReaimedMachineMatchesFresh(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenXpress)
	cfg.Metrics = true
	cfg.Recorder = obs.RecorderConfig{Interval: 10 * sim.Microsecond}
	cfg.Faults = fault.Config{Seed: 99, Reliable: true}
	drops := []uint32{0, 1000, 2500, 5000, 10000, 25000, 50000} // the faults benchmark's loss sweep
	const transfer, total = 1024, 64 << 10

	var points []Config
	for _, d := range drops {
		c := cfg
		c.Faults.DropPPM = d
		points = append(points, c)
	}
	corrupt := points[4]
	corrupt.Faults.CorruptPPM = 20_000
	points = append(points, corrupt)

	sweep := FaultSweep(cfg, drops, transfer, total, 1)
	p := newMachinePool()
	first := p.get(points[0])
	for i, c := range points {
		m := p.get(c)
		if m != first {
			t.Fatalf("point %d: the pool built a new machine for a change of rates alone", i)
		}
		got := MeasureFaultyTransfer(m, 0, 1, transfer, total)
		want := MeasureFaultyTransfer(New(c), 0, 1, transfer, total)
		if got != want {
			t.Fatalf("point %d: re-aimed machine diverged:\nre-aimed: %+v\nfresh:    %+v", i, got, want)
		}
		if i < len(sweep) && sweep[i] != want {
			t.Fatalf("sweep point %d diverged:\nsweep: %+v\nfresh: %+v", i, sweep[i], want)
		}
	}
}

// The pool re-aims a machine only across the injector's rates: a config
// that differs in anything else, Reliable and Survivable included, or
// that arms or disarms the injector, gets a fresh build.
func TestMachinePoolRebuildsOnOtherChanges(t *testing.T) {
	base := faultyCfg(10_000)
	rates := base
	rates.Faults.DropPPM, rates.Faults.CorruptPPM = 0, 7
	unreliable := base
	unreliable.Faults.Reliable = false
	survivable := base
	survivable.Faults.Survivable = true
	seed := base
	seed.Faults.Seed++
	timeout := base
	timeout.Faults.AckTimeout = 20 * sim.Microsecond
	metrics := base
	metrics.Metrics = true
	clean := base
	clean.Faults = fault.Config{}
	dropOnly := clean
	dropOnly.Faults.DropPPM = 5

	for _, tc := range []struct {
		name      string
		from, to  Config
		wantReuse bool
	}{
		{"rates", base, rates, true},
		{"reliable", base, unreliable, false},
		{"survivable", base, survivable, false},
		{"seed", base, seed, false},
		{"ack-timeout", base, timeout, false},
		{"metrics", base, metrics, false},
		{"disarm", dropOnly, clean, false},
		{"arm", clean, dropOnly, false},
	} {
		p := newMachinePool()
		m := p.get(tc.from)
		if reused := p.get(tc.to) == m; reused != tc.wantReuse {
			t.Errorf("%s: reused %v, want %v", tc.name, reused, tc.wantReuse)
		}
		if p.m.Cfg != tc.to {
			t.Errorf("%s: pooled machine's config is %+v, want %+v", tc.name, p.m.Cfg, tc.to)
		}
	}
}
