package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestEventCountPins pins the exact engine-event counts of the
// workloads whose instrumentation, fault and CPU-batching costs matter
// to simulator speed. A count that moves means the simulation does
// different work: an instrumentation or recorder change that schedules
// events, reliable delivery sending a different number of ACKs, or the
// CPU batch quantum retiring a different number of instructions per
// engine event. Wall time is measured by the bench/ module, not here.
func TestEventCountPins(t *testing.T) {
	grid := ConfigFor(4, 4, nic.GenEISAPrototype)
	metrics := grid
	metrics.Metrics = true
	recorder := metrics
	recorder.Recorder = obs.RecorderConfig{Interval: 10 * sim.Microsecond}
	sweep := func(cfg Config) func() uint64 {
		return func() uint64 {
			var n uint64
			for _, r := range LatencySweep(cfg, 1) {
				n += r.Events
			}
			return n
		}
	}

	pair := ConfigFor(2, 1, nic.GenXpress)
	reliable := pair
	reliable.Faults = fault.Config{Seed: 1729, Reliable: true}
	transfer := func(cfg Config) FaultPoint { return MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 256<<10) }

	overlap := func(cfg Config) func() uint64 {
		return func() uint64 {
			m := New(cfg)
			MeasureOverlap(m, nipt.BlockedWriteAU, 20000)
			return m.Fired()
		}
	}

	for _, tc := range []struct {
		name string
		run  func() uint64
		want uint64
	}{
		{"latency-sweep/metrics-off", sweep(grid), 765},
		{"latency-sweep/metrics-on", sweep(metrics), 765},
		{"latency-sweep/recorder-10us", sweep(recorder), 765},
		{"faulty-transfer/off", func() uint64 { return transfer(pair).Events }, 3623},
		{"faulty-transfer/reliable", func() uint64 { return transfer(reliable).Events }, 6707},
		{"faulty-transfer/reliable-acks", func() uint64 { return transfer(reliable).AcksSent }, 512},
		{"overlap/max-batch-1", overlap(batchedCfg(1)), 231149},
		{"overlap/default", overlap(ConfigFor(2, 1, nic.GenEISAPrototype)), 22080},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Fatalf("got %d, want %d", got, tc.want)
			}
		})
	}
}
