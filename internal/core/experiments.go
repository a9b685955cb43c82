package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Experiment harnesses for §5.1 of the paper: communication latency
// ("the time between a write operation by the sending CPU and the
// arrival of the written data in the destination memory") and peak
// bandwidth of deliberate-update transfers. Both cmd/shrimp-hwperf and
// the benchmark suite drive these.
//
// Each harness has exactly one entry point. A harness that runs on one
// machine takes a post-boot *Machine, fresh from New or freshly Reset;
// a harness that spans machines — every sweep in sweep.go — takes a
// Config and a worker count, and feeds the single-machine harness reset
// machines from a per-worker pool.

// ExperimentEventBudget bounds every drain-until-idle phase of the
// experiment harnesses. It is a livelock guard, not a tuning knob: the
// largest legitimate experiment (streaming half a megabyte through the
// deliberate-update engine) fires well under 10^8 events, so a healthy
// run never comes near the budget. When the budget is hit the drain
// stops with an explicit error naming the phase — the simulation was
// truncated by a stuck component, and silently reporting its partial
// timings would corrupt the sweep.
const ExperimentEventBudget uint64 = 500_000_000

// Settle drains the machine until quiescent, returning an explicit
// error (wrapping sim.ErrBudget) if ExperimentEventBudget is exhausted
// first. phase names the experiment phase for the error message.
func (m *Machine) Settle(phase string) error {
	return m.settleWithin(phase, ExperimentEventBudget)
}

func (m *Machine) settleWithin(phase string, budget uint64) error {
	if err := m.RunUntilIdle(budget); err != nil {
		return fmt.Errorf("core: %s: %w", phase, err)
	}
	return nil
}

// mustSettle is Settle for harnesses whose signatures predate error
// returns; the error still carries the phase and budget.
func mustSettle(m *Machine, phase string) {
	if err := m.Settle(phase); err != nil {
		panic(err)
	}
}

// LatencyResult is one measured automatic-update store latency. Events
// and SimEnd carry whole-run engine accounting (boot included), which
// the benchmark in bench/ reports as simulated work per op.
type LatencyResult struct {
	Src, Dst packet.NodeID
	Hops     int
	Latency  sim.Time
	Events   uint64
	SimEnd   sim.Time
}

// pairSetup is one page mapped from a process on src to a process on
// dst: everything needed to drive stores across it.
type pairSetup struct {
	m        *Machine
	src, dst *Node
	ps, pd   *kernel.Process
	sendVA   vm.VAddr
	recvVA   vm.VAddr
}

// setupPair maps the pair's page and settles the machine. It returns any
// failure (a machine check or a blown event budget, typically) as an
// error, so the harnesses that measure faults can report it.
func setupPair(m *Machine, src, dst int, mode nipt.Mode) (*pairSetup, error) {
	s := &pairSetup{m: m, src: m.Node(src), dst: m.Node(dst)}
	s.ps = s.src.K.CreateProcess()
	s.pd = s.dst.K.CreateProcess()
	var err error
	if s.sendVA, err = s.ps.AllocPages(1); err != nil {
		return nil, err
	}
	if s.recvVA, err = s.pd.AllocPages(1); err != nil {
		return nil, err
	}
	_, fut := s.src.K.Map(s.ps, s.sendVA, phys.PageSize, s.dst.ID, s.pd.PID, s.recvVA, mode)
	if err := m.Await(fut); err != nil {
		return nil, fmt.Errorf("core: map failed: %w", err)
	}
	return s, m.Settle("pair setup")
}

// mustPair is setupPair for the clean-fabric harnesses, which panic on
// a setup error.
func mustPair(s *pairSetup, err error) *pairSetup {
	if err != nil {
		panic(err)
	}
	return s
}

// MeasureStoreLatency measures one single-write automatic-update store
// from node src to node dst on a post-boot machine.
func MeasureStoreLatency(m *Machine, src, dst int) LatencyResult {
	s := mustPair(setupPair(m, src, dst, nipt.SingleWriteAU))

	const probe = 0x5a5a_5a5a
	start := m.Now()
	if err := s.src.UserWrite32(s.ps, s.sendVA+128, probe); err != nil {
		panic(err)
	}
	// Poll physical memory directly: cache reads would perturb timing.
	frame, _ := s.pd.FrameOf(s.recvVA)
	arrived := func() bool { return s.dst.Mem.Read32(frame.Addr(128)) == probe }
	for !arrived() {
		if !m.Step() {
			panic("core: latency probe never arrived")
		}
	}
	return LatencyResult{
		Src: s.src.ID, Dst: s.dst.ID,
		Hops:    s.src.Coord.Hops(s.dst.Coord),
		Latency: m.Now() - start,
		Events:  m.Fired(),
		SimEnd:  m.Now(),
	}
}

// MaxLatency returns the worst-case (corner-to-corner) store latency.
func MaxLatency(m *Machine) LatencyResult {
	return MeasureStoreLatency(m, 0, m.Cfg.NodeCount()-1)
}

// BandwidthResult is one point of the deliberate-update bandwidth sweep.
// Events and SimEnd carry whole-run engine accounting, as in
// LatencyResult.
type BandwidthResult struct {
	TransferBytes int
	TotalBytes    int
	Elapsed       sim.Time
	Packets       uint64
	MBps          float64
	Events        uint64
	SimEnd        sim.Time
}

func (r BandwidthResult) String() string {
	return fmt.Sprintf("%6d B transfers: %7.2f MB/s (%d bytes in %v, %d packets)",
		r.TransferBytes, r.MBps, r.TotalBytes, r.Elapsed, r.Packets)
}

// setupDeliberate prepares a deliberate-update stream from src to dst:
// one mapped page, filled once (content is irrelevant to timing), whose
// command page it returns the physical address of. It panics on sizes a
// stream cannot honour: each command moves whole words within one page,
// and the stream carries at least one transfer. A failed set-up step (a
// machine check in the map or the fill, say) comes back as the error.
func setupDeliberate(m *Machine, src, dst, transferBytes, totalBytes int, phase string) (*pairSetup, phys.PAddr, error) {
	if transferBytes <= 0 || transferBytes%4 != 0 || transferBytes > phys.PageSize {
		panic(fmt.Sprintf("core: transfer size %d B is not a positive multiple of 4 within one page", transferBytes))
	}
	if totalBytes < transferBytes {
		panic(fmt.Sprintf("core: total %d B is smaller than one %d B transfer", totalBytes, transferBytes))
	}
	s, err := setupPair(m, src, dst, nipt.DeliberateUpdate)
	if err != nil {
		return nil, 0, err
	}
	if err := s.src.K.GrantCommandPages(s.ps, s.sendVA, s.sendVA+0x4000_0000, 1); err != nil {
		return nil, 0, err
	}
	fill := make([]byte, phys.PageSize) // each word holds its own offset
	for off := 0; off < phys.PageSize; off += 4 {
		binary.LittleEndian.PutUint32(fill[off:], uint32(off))
	}
	if err := s.src.UserWriteBytes(s.ps, s.sendVA, fill); err != nil {
		return nil, 0, err
	}
	if err := m.Settle(phase); err != nil {
		return nil, 0, err
	}
	tr, f := s.ps.AS.Translate(s.sendVA+0x4000_0000, true)
	if f != nil {
		return nil, 0, f
	}
	return s, tr.PA, nil
}

// MeasureDeliberateBandwidth streams totalBytes from node src to node
// dst on a post-boot machine, using back-to-back deliberate-update
// transfers of transferBytes each, and reports the sustained
// bandwidth. transferBytes must be a positive multiple of 4 within one
// page and totalBytes at least one transfer; anything else panics.
func MeasureDeliberateBandwidth(m *Machine, src, dst, transferBytes, totalBytes int) BandwidthResult {
	s, cmd, err := setupDeliberate(m, src, dst, transferBytes, totalBytes, "bandwidth page fill")
	if err != nil {
		panic(err)
	}
	words := uint32(transferBytes / 4)
	transfers := totalBytes / transferBytes
	startPkts := s.dst.NIC.Stats().PacketsIn
	start := m.Now()
	for i := 0; i < transfers; i++ {
		// The §4.3 protocol: locked CMPXCHG until the engine accepts.
		// While the engine is busy a poll cannot succeed: it reads this
		// transfer's own base, so it returns remaining<<1|1, never the
		// 0 the exchange needs. The harness therefore steps the engine
		// (user-level backoff would spin; stepping models the time
		// passing between retries) and polls once the engine is free,
		// at the instant and after the event where a poll per event
		// would first succeed. The refused polls it skips each held the
		// bus for one 8-byte tenure, which could delay a DMA chunk read;
		// measured, they moved no E3 point's figures or event count, and
		// TestEventCountPins pins both ends' end times.
		for {
			if !s.src.NIC.DMABusy() {
				if _, swapped, _ := s.src.Cache.LockedCmpxchg(cmd, 0, words); swapped {
					break
				}
			}
			if !m.Step() {
				panic("core: DMA engine never freed")
			}
		}
	}
	mustSettle(m, "bandwidth stream drain")
	elapsed := m.Now() - start
	delivered := transfers * transferBytes
	return BandwidthResult{
		TransferBytes: transferBytes,
		TotalBytes:    delivered,
		Elapsed:       elapsed,
		Packets:       s.dst.NIC.Stats().PacketsIn - startPkts,
		MBps:          float64(delivered) / 1e6 / elapsed.Seconds(),
		Events:        m.Fired(),
		SimEnd:        m.Now(),
	}
}

// AUBandwidthResult is one point of the automatic-update ablation
// (single-write vs blocked-write, §4.1).
type AUBandwidthResult struct {
	Mode        nipt.Mode
	Stores      int
	Elapsed     sim.Time
	Packets     uint64
	WireBytes   uint64
	MBps        float64 // payload bandwidth
	PktPerStore float64
}

func (r AUBandwidthResult) String() string {
	return fmt.Sprintf("%-13s: %7.2f MB/s, %.3f packets/store, %d wire bytes for %d stores",
		r.Mode, r.MBps, r.PktPerStore, r.WireBytes, r.Stores)
}

// MeasureAUBandwidth streams sequential 4-byte stores through an
// automatic-update mapping and reports delivered bandwidth and packet
// efficiency. This is the A1 ablation: blocked-write merging exists
// precisely because single-write packetization is wildly inefficient
// for bulk data.
func MeasureAUBandwidth(m *Machine, mode nipt.Mode, stores int) AUBandwidthResult {
	s := mustPair(setupPair(m, 0, 1, mode))
	before := s.dst.NIC.Stats()
	beforeWire := m.Net.Stats().TotalWireByte
	start := m.Now()
	off := vm.VAddr(0)
	for i := 0; i < stores; i++ {
		if err := s.src.UserWrite32(s.ps, s.sendVA+off, uint32(i)); err != nil {
			panic(err)
		}
		off += 4
		if off >= phys.PageSize {
			off = 0
		}
	}
	mustSettle(m, "AU stream drain")
	elapsed := m.Now() - start
	after := s.dst.NIC.Stats()
	payload := 4 * stores
	return AUBandwidthResult{
		Mode:        mode,
		Stores:      stores,
		Elapsed:     elapsed,
		Packets:     after.PacketsIn - before.PacketsIn,
		WireBytes:   m.Net.Stats().TotalWireByte - beforeWire,
		MBps:        float64(payload) / 1e6 / elapsed.Seconds(),
		PktPerStore: float64(after.PacketsIn-before.PacketsIn) / float64(stores),
	}
}
