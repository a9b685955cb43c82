package core

import (
	"repro/internal/exp"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Parallel sweep harnesses. Every sweep point is an independent
// experiment on its own Machine, so points fan out across exp.Map
// workers; each worker keeps one machine in a machinePool and reuses it
// via Machine.Reset whenever consecutive points share a config, or
// differ only in the fault injector's rates, paying the construction
// cost (about 960 allocations / 0.10 MB for a 16-node machine, and
// about 1.2 MB of obs buffers with metrics and the recorder on) once
// per worker instead of once per point. Results come back in input
// order, bit-identical to the workers == 1 sequential path — the
// differential tests in sweep_test.go enforce this.

// machinePool is the worker-private state of a parallel sweep: the last
// machine built. Config is a plain comparable struct, so "same config"
// is an == test.
type machinePool struct {
	m *Machine
}

func newMachinePool() *machinePool { return new(machinePool) }

// get returns a post-boot machine for cfg: the cached one, Reset in
// place, when cfg matches its config or re-aims it (see reaims); a
// fresh build otherwise, after the dropped machine's free packets go
// back to the process-wide pool.
func (p *machinePool) get(cfg Config) *Machine {
	if p.m != nil && reaims(p.m.Cfg, cfg) {
		if err := cfg.Validate(); err != nil {
			panic(err) // as New would
		}
		p.m.Cfg = cfg
		p.m.Reset()
		return p.m
	}
	if p.m != nil {
		p.m.Net.Packets().Release()
	}
	p.m = New(cfg)
	return p.m
}

// reaims reports whether a machine built from built serves cfg once
// Reset re-reads its config: the two are equal, or both arm the fault
// injector and differ only in its drop and corrupt rates, which the
// injector reads at every roll and nothing reads at build.
func reaims(built, cfg Config) bool {
	if built.Faults.Enabled() && cfg.Faults.Enabled() {
		built.Faults.DropPPM = cfg.Faults.DropPPM
		built.Faults.CorruptPPM = cfg.Faults.CorruptPPM
	}
	return built == cfg
}

// LatencySweep measures store latency from node 0 to every other node
// of the configured mesh (the paper quotes the 16-node figure), fanned
// across workers goroutines (workers <= 0 selects exp.DefaultWorkers,
// workers == 1 runs inline). Results are ordered by destination node.
func LatencySweep(cfg Config, workers int) []LatencyResult {
	return exp.Map(workers, cfg.NodeCount()-1, newMachinePool,
		func(p *machinePool, i int) LatencyResult {
			return MeasureStoreLatency(p.get(cfg), 0, i+1)
		})
}

// BandwidthSweep measures sustained deliberate-update bandwidth from
// node 0 to node 1 across transfer sizes, fanned across workers
// goroutines; results are ordered as sizes.
func BandwidthSweep(cfg Config, sizes []int, totalBytes, workers int) []BandwidthResult {
	return exp.Map(workers, len(sizes), newMachinePool,
		func(p *machinePool, i int) BandwidthResult {
			return MeasureDeliberateBandwidth(p.get(cfg), 0, 1, sizes[i], totalBytes)
		})
}

// AUBandwidthSweep runs the A1 automatic-update ablation
// (MeasureAUBandwidth) for each mode, fanned across workers goroutines;
// results are ordered as modes.
func AUBandwidthSweep(cfg Config, modes []nipt.Mode, stores, workers int) []AUBandwidthResult {
	return exp.Map(workers, len(modes), newMachinePool,
		func(p *machinePool, i int) AUBandwidthResult {
			return MeasureAUBandwidth(p.get(cfg), modes[i], stores)
		})
}

// MergeWindowSweep runs MeasureMergeWindow for each window, fanned
// across workers goroutines; results are ordered as windows. The window
// is NIC configuration, so every point builds its own machine — the
// sweep parallelizes but cannot Reset-reuse across distinct windows.
func MergeWindowSweep(cfg Config, windows []sim.Time, storeGap sim.Time, stores, workers int) []MergeWindowResult {
	return exp.Map(workers, len(windows), newMachinePool,
		func(p *machinePool, i int) MergeWindowResult {
			c := cfg
			c.NIC.MergeWindow = windows[i]
			return MeasureMergeWindow(p.get(c), storeGap, stores)
		})
}
