package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Differential tests for the flight recorder and the watchdog: both are
// pacers (passive observers of the event order), so arming them must
// change no simulated result — not even the engine bookkeeping, since
// pacing adds no events.

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

// TestWatchdogRetryStorm: a crashed receiver with an effectively
// unbounded retry budget used to spin the run into its event budget; the
// watchdog converts it into a structured retry-storm machine check.
func TestWatchdogRetryStorm(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenXpress)
	cfg.Metrics = true
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, RetryBudget: 1 << 30,
		Nodes: [2]fault.NodeFault{{Node: 1, Kind: fault.NodeCrash, At: 200 * sim.Microsecond}},
	}
	cfg.Watchdog = WatchdogConfig{Interval: 50 * sim.Microsecond}
	cfg.Recorder = obs.RecorderConfig{Interval: 50 * sim.Microsecond}
	m := New(cfg)
	p := MeasureFaultyTransfer(m, 0, 1, 1024, 64*1024)
	if p.Err == "" {
		t.Fatal("crashed receiver with huge retry budget did not fail")
	}
	if !strings.Contains(p.Err, "retry-storm") {
		t.Fatalf("expected a retry-storm machine check, got: %s", p.Err)
	}
	var mc *fault.MachineCheck
	if err := m.Failed(); !errors.As(err, &mc) || mc.Kind != fault.CheckRetryStorm || mc.Node != 0 {
		t.Fatalf("failure surface: %v", err)
	}
	// The trip pinned a mark on the recorder timeline.
	marks := m.Rec.Series().Marks
	if len(marks) != 1 || marks[0].Label != "watchdog: retry-storm" {
		t.Fatalf("recorder marks %+v", marks)
	}
}

// TestWatchdogDeadline: a workload still running past the configured
// deadline trips CheckDeadline at the first check at/after it.
func TestWatchdogDeadline(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Metrics = true
	cfg.Watchdog = WatchdogConfig{Interval: 10 * sim.Microsecond, Deadline: 50 * sim.Microsecond}
	m := New(cfg)
	// An event chain that outlives the deadline.
	var tick func()
	tick = func() {
		if m.Eng.Now() < 500*sim.Microsecond {
			m.Eng.After(5*sim.Microsecond, tick)
		}
	}
	m.Eng.After(5*sim.Microsecond, tick)
	err := m.Eng.DrainBudget(1 << 20)
	var mc *fault.MachineCheck
	if !errors.As(err, &mc) || mc.Kind != fault.CheckDeadline {
		t.Fatalf("expected deadline machine check, got %v", err)
	}
	if mc.At < 50*sim.Microsecond || mc.At >= 60*sim.Microsecond {
		t.Fatalf("deadline check at %v, want first check at/after 50us", mc.At)
	}
}

// TestWatchdogFIFOStall drives the stall detector directly: a node
// pinned at the threshold with no sends for `windows` checks trips.
func TestWatchdogFIFOStall(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Metrics = true
	cfg.Watchdog = WatchdogConfig{Interval: 10 * sim.Microsecond, Windows: 3, StallBytes: 512}
	m := New(cfg)
	m.Obs.Node(1).Set(obs.GaugeOutFIFOBytes, 600)
	for i := 1; i <= 2; i++ {
		m.wd.Pace(m.wd.NextDeadline(), m.wd.NextDeadline())
		if m.Failed() != nil {
			t.Fatalf("tripped after %d windows", i)
		}
	}
	m.wd.Pace(m.wd.NextDeadline(), m.wd.NextDeadline())
	var mc *fault.MachineCheck
	if err := m.Failed(); !errors.As(err, &mc) || mc.Kind != fault.CheckFIFOStall || mc.Node != 1 {
		t.Fatalf("expected node-1 fifo-stall, got %v", m.Failed())
	}
	// Tripped: no further deadlines.
	if m.wd.NextDeadline() != sim.Forever {
		t.Fatal("tripped watchdog still scheduling checks")
	}
	// Reset rearms it.
	m.Reset()
	if m.wd.NextDeadline() != 10*sim.Microsecond || m.Failed() != nil {
		t.Fatal("reset did not rearm the watchdog")
	}
}

// TestWatchdogDifferentialOff: a watchdog that never trips changes no
// simulated result.
func TestWatchdogDifferentialOff(t *testing.T) {
	run := func(wd bool) AUBandwidthResult {
		cfg := ConfigFor(4, 4, nic.GenEISAPrototype)
		cfg.Metrics = true
		if wd {
			cfg.Watchdog = WatchdogConfig{Interval: 20 * sim.Microsecond}
		}
		m := New(cfg)
		return MeasureAUBandwidth(m, nipt.SingleWriteAU, 600)
	}
	if got, want := run(true), run(false); got != want {
		t.Fatalf("watchdog changed the result:\n got  %+v\n want %+v", got, want)
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

// TestWatchdogRearm: with Rearm set a pathology trip does not disarm
// the watchdog. It keeps checking, waits for the machine to show
// recovery (a delivery anywhere), re-arms with fresh baselines and a
// recorder mark, and can then trip again on a second pathology. The
// failure surface still keeps only the first machine check, and Rearm
// off keeps the one-shot semantics.
func TestWatchdogRearm(t *testing.T) {
	cfg := recCfg(ConfigFor(2, 1, nic.GenEISAPrototype))
	cfg.Watchdog = WatchdogConfig{
		Interval: 10 * sim.Microsecond, Windows: 3, StallBytes: 512, Rearm: true,
	}
	m := New(cfg)
	pace := func(n int) {
		for i := 0; i < n; i++ {
			m.wd.Pace(m.wd.NextDeadline(), m.wd.NextDeadline())
		}
	}

	// First pathology: a node pinned at the stall threshold trips after
	// `windows` checks — but the watchdog stays armed.
	m.Obs.Node(1).Set(obs.GaugeOutFIFOBytes, 600)
	pace(3)
	var mc *fault.MachineCheck
	if err := m.Failed(); !errors.As(err, &mc) || mc.Kind != fault.CheckFIFOStall {
		t.Fatalf("expected a fifo-stall machine check, got %v", m.Failed())
	}
	first := mc
	if m.wd.NextDeadline() == sim.Forever {
		t.Fatal("re-armable watchdog disarmed after the trip")
	}

	// No recovery yet: further checks neither re-trip nor re-arm.
	pace(2)
	if marks := m.Rec.Series().Marks; len(marks) != 1 {
		t.Fatalf("marks before recovery: %+v", marks)
	}

	// Recovery: the stall clears and a packet is delivered somewhere.
	m.Obs.Node(1).Set(obs.GaugeOutFIFOBytes, 0)
	m.Obs.Node(0).Inc(obs.CtrPacketsIn)
	pace(1)
	marks := m.Rec.Series().Marks
	if len(marks) != 2 || marks[1].Label != "watchdog: re-armed" {
		t.Fatalf("expected a re-arm mark, got %+v", marks)
	}

	// Second pathology after re-arm: trips again (fresh mark), while the
	// failure surface still reports the first machine check.
	m.Obs.Node(1).Set(obs.GaugeOutFIFOBytes, 700)
	pace(3)
	marks = m.Rec.Series().Marks
	if len(marks) != 3 || marks[2].Label != "watchdog: fifo-stall" {
		t.Fatalf("expected a second trip mark, got %+v", marks)
	}
	if err := m.Failed(); !errors.As(err, &mc) || mc != first {
		t.Fatalf("failure surface no longer holds the first check: %v", err)
	}

	// Rearm off: the same pathology disarms the watchdog at the trip.
	cfg.Watchdog.Rearm = false
	m2 := New(cfg)
	m2.Obs.Node(1).Set(obs.GaugeOutFIFOBytes, 600)
	for i := 0; i < 3; i++ {
		m2.wd.Pace(m2.wd.NextDeadline(), m2.wd.NextDeadline())
	}
	if m2.Failed() == nil || m2.wd.NextDeadline() != sim.Forever {
		t.Fatal("one-shot watchdog did not disarm at the trip")
	}
}
