package core

import (
	"repro/internal/exp"
	"repro/internal/nipt"
	"repro/internal/sim"
)

// Parallel sweep harnesses. Every sweep point is an independent
// experiment on its own Machine, so points fan out across exp.Map
// workers; each worker keeps one machine in a machinePool and reuses it
// via Machine.Reset whenever consecutive points share a config, paying
// the construction cost (about 960 allocations / 0.10 MB for a 16-node
// machine) once per worker instead of once per point. Results come back
// in input order, bit-identical to the workers == 1 sequential path —
// the differential tests in sweep_test.go enforce this.

// machinePool is the worker-private state of a parallel sweep: the last
// machine built and the config it was built from. Config is a plain
// comparable struct, so "same config" is an == test.
type machinePool struct {
	cfg Config
	m   *Machine
}

func newMachinePool() *machinePool { return new(machinePool) }

// get returns a post-boot machine for cfg: the cached one, Reset in
// place, when the config matches; a fresh build otherwise.
func (p *machinePool) get(cfg Config) *Machine {
	if p.m != nil && p.cfg == cfg {
		p.m.Reset()
		return p.m
	}
	p.m = New(cfg)
	p.cfg = cfg
	return p.m
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
