package core

import (
	"reflect"
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
)

// Differential tests for batched CPU interpretation at the machine
// level: Config.CPU.MaxBatch must never change a simulated result, only
// how many engine events it takes to compute it. OverlapResult carries
// no engine accounting (unlike LatencyResult.Events), so whole-struct
// equality is exactly the bit-identity claim.

// batchedCfg is the 2-node overlap config with the given batch quantum.
func batchedCfg(maxBatch int) Config {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.CPU.MaxBatch = maxBatch
	return cfg
}

// TestBatchDifferentialOverlap pins the instruction-bound overlap
// experiment across batch quanta. MeasureOverlap runs baseline and
// mapped pass on one machine via Reset, so this also covers batching
// across Machine.Reset reuse.
func TestBatchDifferentialOverlap(t *testing.T) {
	const iters = 400
	want := MeasureOverlap(New(batchedCfg(1)), nipt.BlockedWriteAU, iters)
	for _, mb := range []int{0, 3, 64} {
		got := MeasureOverlap(New(batchedCfg(mb)), nipt.BlockedWriteAU, iters)
		if got != want {
			t.Fatalf("MaxBatch=%d changed overlap:\n got  %+v\n want %+v", mb, got, want)
		}
	}
	instr := batchedCfg(64)
	instr.Metrics = true
	if got := MeasureOverlap(New(instr), nipt.BlockedWriteAU, iters); got != want {
		t.Fatalf("batching with metrics on changed overlap:\n got  %+v\n want %+v", got, want)
	}
}

// TestBatchDifferentialOverlapSweep crosses batching with the parallel
// machine-reuse pool: a batched parallel sweep must reproduce the
// per-instruction sequential sweep bit for bit. Run under -race (ci.sh
// does) this is also the data-race proof for batched CPUs in the pool.
func TestBatchDifferentialOverlapSweep(t *testing.T) {
	modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}
	want := overlapSweep(batchedCfg(1), modes, 128, 1)
	for _, mb := range []int{0, 3, 64} {
		got := overlapSweep(batchedCfg(mb), modes, 128, 2)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxBatch=%d parallel sweep diverged:\n got  %+v\n want %+v", mb, got, want)
		}
	}
}

// TestBatchTelemetryPins pins node 0's batch telemetry after the §4.1
// loop at the default config with metrics on: how many batches the CPU
// ran, how many instructions they retired (sum over count is the mean
// batch length: 3.7470 single-write, 20.1193 blocked-write) and why
// each one ended. The telemetry is read at the CPU's yield points, so a
// pure run that yields one op early or late, or for the wrong reason,
// fails here even when every simulated result is right.
func TestBatchTelemetryPins(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		mode                                nipt.Mode
		batches, retired                    uint64
		event, quantum, fault, halt, freeze uint64
	}{
		{"single-write", nipt.SingleWriteAU, 58715, 220004, 58714, 0, 0, 1, 0},
		{"blocked-write", nipt.BlockedWriteAU, 10935, 220004, 10934, 0, 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
			cfg.Metrics = true
			m := New(cfg)
			MeasureOverlap(m, tc.mode, 20000)
			s := m.Obs.Node(0)
			h := s.Hist(obs.HistBatchLen)
			got := [7]uint64{h.Count, h.Sum,
				s.Counter(obs.CtrBatchBreakEvent), s.Counter(obs.CtrBatchBreakQuantum),
				s.Counter(obs.CtrBatchBreakFault), s.Counter(obs.CtrBatchBreakHalt),
				s.Counter(obs.CtrBatchBreakFreeze)}
			want := [7]uint64{tc.batches, tc.retired, tc.event, tc.quantum, tc.fault, tc.halt, tc.freeze}
			if got != want {
				t.Fatalf("batches, retired, event/quantum/fault/halt/freeze breaks:\n got  %v (mean %.4f)\n want %v",
					got, h.Mean(), want)
			}
		})
	}
}
