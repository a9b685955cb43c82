package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Differential tests for the flight recorder: it is a pacer (a passive
// observer of the event order), so arming it must change no simulated
// result — not even the engine bookkeeping, since pacing adds no events.

// recCfg arms metrics plus a recorder on cfg.
func recCfg(cfg Config) Config {
	cfg.Metrics = true
	cfg.Recorder = obs.RecorderConfig{Interval: 10 * sim.Microsecond, Capacity: 256}
	return cfg
}

// TestRecorderDifferentialOff: a machine with a recorder armed is
// strictly bit-identical to one without — result, full metrics
// snapshot, and the engine's fired-event count.
func TestRecorderDifferentialOff(t *testing.T) {
	run := func(rec bool) (AUBandwidthResult, obs.Snapshot, uint64) {
		cfg := ConfigFor(4, 4, nic.GenEISAPrototype)
		cfg.Metrics = true
		if rec {
			cfg = recCfg(cfg)
		}
		m := New(cfg)
		r := MeasureAUBandwidth(m, nipt.SingleWriteAU, 600)
		return r, m.Obs.Snapshot(), m.Fired()
	}
	plainR, plainS, plainF := run(false)
	recR, recS, recF := run(true)
	if recR != plainR {
		t.Fatalf("recorder changed the result:\n got  %+v\n want %+v", recR, plainR)
	}
	if recF != plainF {
		t.Fatalf("recorder changed fired events: %d vs %d", recF, plainF)
	}
	if !reflect.DeepEqual(recS, plainS) {
		t.Fatalf("recorder changed the metrics snapshot")
	}
}

// TestRecorderResetReuse: a Reset-reused machine's recorder replays the
// fresh machine's timeline exactly, including after ring wraparound.
func TestRecorderResetReuse(t *testing.T) {
	cfg := recCfg(ConfigFor(4, 4, nic.GenEISAPrototype))
	cfg.Recorder.Capacity = 8 // small ring: exercise wraparound + O(used) reset
	fresh := New(cfg)
	want := MeasureAUBandwidth(fresh, nipt.SingleWriteAU, 600)
	wantS := fresh.Rec.Series()
	if len(wantS.Times) == 0 {
		t.Fatal("fresh run took no samples; workload too short for the cadence")
	}

	m := New(cfg)
	for round := 0; round < 3; round++ {
		if round > 0 {
			m.Reset()
		}
		if got := MeasureAUBandwidth(m, nipt.SingleWriteAU, 600); got != want {
			t.Fatalf("round %d: result diverged: %+v vs %+v", round, got, want)
		}
		if got := m.Rec.Series(); !reflect.DeepEqual(got, wantS) {
			t.Fatalf("round %d: recorder series diverged after reset", round)
		}
	}
}

// TestRecorderParallelSweep: sweeps over Reset-reused pool machines with
// the recorder armed return exactly the recorder-off results, event
// counts included.
func TestRecorderParallelSweep(t *testing.T) {
	want := LatencySweep(ConfigFor(4, 4, nic.GenEISAPrototype), 4)
	got := LatencySweep(recCfg(ConfigFor(4, 4, nic.GenEISAPrototype)), 4)
	if len(got) != len(want) {
		t.Fatalf("sweep sizes differ")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d diverged with recorder armed:\n got  %+v\n want %+v",
				i, got[i], want[i])
		}
	}
}

// TestMachineOpenMetricsDeterministic: two identical runs expose
// byte-identical OpenMetrics.
func TestMachineOpenMetricsDeterministic(t *testing.T) {
	render := func() string {
		m := New(recCfg(ConfigFor(4, 4, nic.GenEISAPrototype)))
		MeasureAUBandwidth(m, nipt.SingleWriteAU, 600)
		var b strings.Builder
		if err := m.WriteOpenMetrics(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	seq := render()
	if seq != render() {
		t.Fatal("two identical runs exposed different OpenMetrics")
	}
	if !strings.HasSuffix(seq, "# EOF\n") || !strings.Contains(seq, "shrimp_rec_samples_total") {
		t.Fatal("exposition malformed")
	}
}

// TestFaultPointTailLatency: with metrics on, a fault point reports
// ordered, positive end-to-end latency quantiles, deterministically.
func TestFaultPointTailLatency(t *testing.T) {
	run := func() FaultPoint {
		cfg := ConfigFor(2, 1, nic.GenXpress)
		cfg.Metrics = true
		cfg.Faults = fault.Config{Seed: 7, DropPPM: 20_000, Reliable: true}
		return MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 32*1024)
	}
	p := run()
	if p.Err != "" {
		t.Fatalf("run failed: %s", p.Err)
	}
	if p.LatP50 <= 0 || p.LatP99 < p.LatP50 || p.LatP999 < p.LatP99 {
		t.Fatalf("latency quantiles out of order: p50=%v p99=%v p999=%v", p.LatP50, p.LatP99, p.LatP999)
	}
	if again := run(); again != p {
		t.Fatalf("fault point not deterministic:\n got  %+v\n want %+v", again, p)
	}
}
