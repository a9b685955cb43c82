package core

// Reset tears the machine back down to its post-boot state in place —
// observationally equivalent to New(m.Cfg) — while reusing every
// allocation the machine has made: DRAM frames, cache line storage, the
// NIPT, the mesh and its worm pool, the engine's event queue, and the
// kernels' free-frame stacks and map buckets. It allocates nothing
// (BenchmarkMachineReset), and its cost follows what the last run
// touched: only written DRAM frames are cleared, and a cache that never
// filled has no lines to invalidate. Sweep harnesses that measure many
// points on the same configuration reuse one machine per worker instead
// of paying the construction cost per point (about 960 allocations /
// 0.10 MB for a 16-node machine).
//
// The engine is reset first, discarding any pending events, so Reset is
// safe even when the previous measurement stopped mid-flight (e.g. a
// latency probe that returns the instant the data lands, with deposit
// pipeline events still queued). Component resets then clear all state
// those events referenced, the NIPTs' kernel ring entries with the rest,
// and the kernels' boot step runs exactly as in New: as on a new
// machine, each ring is installed again when its pair first talks.
func (m *Machine) Reset() {
	m.Eng.Reset()
	m.Net.Reset()
	for _, n := range m.Nodes {
		n.Mem.Reset()
		n.Xbus.Reset()
		if n.EISA != nil {
			n.EISA.Reset()
		}
		n.Cache.Reset()
		n.NIC.Table().Reset()
		n.NIC.Reset()
		n.CPU.Reset()
		n.K.Reset()
	}
	m.Obs.Reset()
	m.Rec.Reset()
	m.Faults.Reset()
	m.bootKernels()
	// Re-schedule the fault plan's node crashes: the engine reset
	// discarded them along with everything else pending, and the
	// injector's decision counters just restarted, so the reset machine
	// replays the identical fault pattern a fresh one would.
	m.applyFaults()
}
