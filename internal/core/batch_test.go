package core

import (
	"reflect"
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
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
