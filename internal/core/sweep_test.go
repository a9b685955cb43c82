package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Machine.Reset must be observationally equivalent to New: every
// experiment harness must report bit-identical results on a freshly
// built machine and on a machine that already ran a (different)
// experiment and was Reset. This is the load-bearing invariant behind
// per-worker machine reuse.
func TestResetEquivalence(t *testing.T) {
	for _, gen := range []nic.Generation{nic.GenEISAPrototype, nic.GenXpress} {
		cfg := ConfigFor(2, 2, gen)
		t.Run(gen.String(), func(t *testing.T) {
			fresh := MeasureStoreLatency(New(cfg), 0, 3)

			m := New(cfg)
			// Dirty the machine with unrelated experiments, including one
			// that stops mid-flight with events still queued.
			MeasureAUBandwidth(m, nipt.BlockedWriteAU, 64)
			m.Reset()
			MeasureStoreLatency(m, 0, 1)
			m.Reset()
			reused := MeasureStoreLatency(m, 0, 3)
			if fresh != reused {
				t.Fatalf("latency after Reset diverged:\nfresh:  %+v\nreused: %+v", fresh, reused)
			}

			m.Reset()
			bwFresh := MeasureDeliberateBandwidth(New(cfg), 0, 1, 1024, 64*1024)
			bwReused := MeasureDeliberateBandwidth(m, 0, 1, 1024, 64*1024)
			if bwFresh != bwReused {
				t.Fatalf("bandwidth after Reset diverged:\nfresh:  %+v\nreused: %+v", bwFresh, bwReused)
			}

			m.Reset()
			auFresh := MeasureAUBandwidth(New(cfg), nipt.SingleWriteAU, 256)
			auReused := MeasureAUBandwidth(m, nipt.SingleWriteAU, 256)
			if auFresh != auReused {
				t.Fatalf("AU bandwidth after Reset diverged:\nfresh:  %+v\nreused: %+v", auFresh, auReused)
			}
		})
	}
}

// BenchmarkMachineReset times the Reset a sweep worker does between
// points: a 4x4 machine of each generation, dirtied by a corner-to-corner
// latency probe before every Reset (untimed). Reset reuses every
// allocation the machine made, so it must not allocate.
func BenchmarkMachineReset(b *testing.B) {
	for _, gen := range []nic.Generation{nic.GenEISAPrototype, nic.GenXpress} {
		b.Run(gen.String(), func(b *testing.B) {
			m := New(ConfigFor(4, 4, gen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				MeasureStoreLatency(m, 0, 15)
				b.StartTimer()
				m.Reset()
			}
		})
	}
}

// Every parallel sweep must be byte-identical to its sequential path.
// Run with -race (ci.sh does) this doubles as the data-race proof for
// the worker pool under more points than workers.
func TestParallelSweepsMatchSequential(t *testing.T) {
	cfg := ConfigFor(4, 4, nic.GenEISAPrototype)

	t.Run("latency", func(t *testing.T) {
		seq := LatencySweep(cfg, 1) // 15 points > 4 workers
		par := LatencySweep(cfg, 4)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("latency sweep diverged:\nseq: %+v\npar: %+v", seq, par)
		}
	})

	small := ConfigFor(2, 1, nic.GenEISAPrototype)
	t.Run("bandwidth", func(t *testing.T) {
		sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
		seq := BandwidthSweep(small, sizes, 32*1024, 1)
		par := BandwidthSweep(small, sizes, 32*1024, 3)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("bandwidth sweep diverged:\nseq: %+v\npar: %+v", seq, par)
		}
	})

	t.Run("au-ablation", func(t *testing.T) {
		modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}
		seq := AUBandwidthSweep(small, modes, 512, 1)
		par := AUBandwidthSweep(small, modes, 512, 2)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("AU sweep diverged:\nseq: %+v\npar: %+v", seq, par)
		}
	})

	t.Run("merge-window", func(t *testing.T) {
		windows := []sim.Time{20 * sim.Nanosecond, 150 * sim.Nanosecond, 500 * sim.Nanosecond}
		seq := MergeWindowSweep(small, windows, 100*sim.Nanosecond, 64, 1)
		par := MergeWindowSweep(small, windows, 100*sim.Nanosecond, 64, 3)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("merge-window sweep diverged:\nseq: %+v\npar: %+v", seq, par)
		}
	})

	t.Run("overlap", func(t *testing.T) {
		modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}
		seq := overlapSweep(small, modes, 128, 1)
		par := overlapSweep(small, modes, 128, 2)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("overlap sweep diverged:\nseq: %+v\npar: %+v", seq, par)
		}
	})
}

// overlapSweep runs MeasureOverlap for each mode on the sweep worker
// pool, the way the library's sweeps fan out their points.
func overlapSweep(cfg Config, modes []nipt.Mode, iters, workers int) []OverlapResult {
	return exp.Map(workers, len(modes), newMachinePool,
		func(p *machinePool, i int) OverlapResult {
			return MeasureOverlap(p.get(cfg), modes[i], iters)
		})
}

// The sequential sweeps must also match one fresh machine per point
// (the single-machine harness on New), pinning down that pooling/Reset
// did not change reported numbers.
func TestSweepMatchesFreshMachines(t *testing.T) {
	cfg := ConfigFor(2, 2, nic.GenXpress)
	sweep := LatencySweep(cfg, 1)
	for i, r := range sweep {
		fresh := MeasureStoreLatency(New(cfg), 0, i+1)
		if r != fresh {
			t.Fatalf("dst %d: sweep %+v != fresh %+v", i+1, r, fresh)
		}
	}
}

// Budget exhaustion must surface as an explicit error wrapping
// sim.ErrBudget and naming the phase, instead of silently truncating
// the run or panicking. (Tested through settleWithin with a small
// budget; Settle is the same path with ExperimentEventBudget, which a
// healthy run never reaches.) RunUntilIdle, which settleWithin calls,
// returns the same error without the phase.
func TestSettleBudgetError(t *testing.T) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	var tick func()
	tick = func() { m.Eng.After(sim.Nanosecond, tick) } // self-rearming: never quiesces
	m.Eng.After(0, tick)
	err := m.settleWithin("livelock probe", 1000)
	if err == nil {
		t.Fatal("settleWithin returned nil on a non-quiescing machine")
	}
	if !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("error %v does not wrap sim.ErrBudget", err)
	}
	if !strings.Contains(err.Error(), "livelock probe") {
		t.Fatalf("error %v does not name the phase", err)
	}
	if err := m.RunUntilIdle(1000); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("RunUntilIdle on a non-quiescing machine: %v, want sim.ErrBudget", err)
	}
	// A quiescent machine settles with no error.
	if err := New(ConfigFor(2, 1, nic.GenEISAPrototype)).Settle("idle"); err != nil {
		t.Fatalf("Settle on idle machine: %v", err)
	}
}
