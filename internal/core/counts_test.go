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
// engine event. The availability rows are shrimp-faults -avail's 1- and
// 2-crash points, the only pinned runs whose counts depend on the order
// of same-instant events. The bandwidth rows are E3's ends, 64 B
// transfers on EISA and 4 KB on Xpress, on a fresh 2x1 machine: one run
// each pins its events, its source bus's command reads (one LOCK
// CMPXCHG per transfer, because the harness polls only a free DMA
// engine) and its simulated end time, which the bus tenures of the
// polls a busy engine refused could have moved. The max-pending rows pin
// the event queue's high-water mark on the reliable transfer and the
// availability runs, the workloads whose timers wait in lanes. The
// overlap rows are the §4.1 compute-and-store loop through a
// blocked-write and a single-write mapping, stepped per instruction and
// at the default CPU config; at the default, most single-write batches
// end inside a pure run, where a packet event falls, so a pure run that
// yields an op early or late fails there. Wall time is measured by the
// bench/ module, not here.
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

	avail := func(crashes int) func() uint64 {
		return func() uint64 { return MeasureAvailability(New(surviveCfg(4, 4, crashes)), 6, 64).Events }
	}
	// maxPending pins the event queue's high-water mark after run on a
	// fresh machine of cfg, so a lane that loses or double-counts a
	// pending timer fails here.
	maxPending := func(cfg Config, run func(*Machine)) func() uint64 {
		return func() uint64 {
			m := New(cfg)
			run(m)
			return uint64(m.Eng.MaxPending())
		}
	}
	availRun := func(m *Machine) { MeasureAvailability(m, 6, 64) }

	overlap := func(cfg Config, mode nipt.Mode) func() uint64 {
		return func() uint64 {
			m := New(cfg)
			MeasureOverlap(m, mode, 20000)
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
		{"availability/1-crash", avail(1), 87419},
		{"availability/2-crash", avail(2), 79419},
		{"max-pending/faulty-transfer/reliable", maxPending(reliable, func(m *Machine) {
			MeasureFaultyTransfer(m, 0, 1, 1024, 256<<10)
		}), 11},
		{"max-pending/availability/1-crash", maxPending(surviveCfg(4, 4, 1), availRun), 918},
		{"max-pending/availability/2-crash", maxPending(surviveCfg(4, 4, 2), availRun), 980},
		{"overlap/max-batch-1", overlap(batchedCfg(1), nipt.BlockedWriteAU), 231149},
		{"overlap/default", overlap(ConfigFor(2, 1, nic.GenEISAPrototype), nipt.BlockedWriteAU), 22080},
		{"overlap/single-write/max-batch-1", overlap(batchedCfg(1), nipt.SingleWriteAU), 376973},
		{"overlap/single-write", overlap(ConfigFor(2, 1, nic.GenEISAPrototype), nipt.SingleWriteAU), 215684},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Fatalf("got %d, want %d", got, tc.want)
			}
		})
	}

	for _, tc := range []struct {
		name             string
		gen              nic.Generation
		transfer         int
		events, cmdReads uint64
		end              sim.Time
	}{
		{"bandwidth/eisa-64B", nic.GenEISAPrototype, 64, 65581, 8192, 25810177622},
		{"bandwidth/xpress-4KB", nic.GenXpress, 4096, 7207, 128, 7762193866},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(ConfigFor(2, 1, tc.gen))
			r := MeasureDeliberateBandwidth(m, 0, 1, tc.transfer, 512<<10)
			if reads := m.Nodes[0].Xbus.Stats().CmdReads; r.Events != tc.events || reads != tc.cmdReads || r.SimEnd != tc.end {
				t.Fatalf("got %d events, %d command reads, end %d ps; want %d, %d, %d ps",
					r.Events, reads, int64(r.SimEnd), tc.events, tc.cmdReads, int64(tc.end))
			}
		})
	}
}
