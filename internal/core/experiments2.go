package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// OverlapResult quantifies the paper's §4.1 claim that automatic update
// overlaps communication with computation: the CPU issuing stores to a
// mapped page "suffers only the local write-through cache latency" while
// the data propagates behind it.
type OverlapResult struct {
	BaselineTime sim.Time // compute + stores to an unmapped page
	MappedTime   sim.Time // identical program, page mapped out
	BytesMoved   uint64   // payload delivered remotely during the run
	OverheadPct  float64  // CPU-visible slowdown from communicating
}

func (r OverlapResult) String() string {
	return fmt.Sprintf("baseline %v, with communication %v (+%.2f%%), %d bytes delivered in the background",
		r.BaselineTime, r.MappedTime, r.OverheadPct, r.BytesMoved)
}

// overlapProgram interleaves stores to BUF with ALU work, the shape of
// a compute loop whose results stream out through a mapping.
const overlapProgram = `
work:
	mov	ecx, ITERS
	xor	ebx, ebx
	mov	esi, BUF
wloop:
	mov	eax, ebx	; "compute" a value
	add	eax, 12345
	xor	eax, 0x5a5a
	add	eax, ebx
	mov	[esi], eax	; store it (snooped if mapped)
	add	esi, 4
	and	esi, BUFMASK
	or	esi, BUF
	inc	ebx
	dec	ecx
	jnz	wloop
	hlt
`

// MeasureOverlap runs the identical ISA program twice on a post-boot
// machine — once storing to a private page, once to a page mapped out
// with the given AU mode — and compares CPU-visible completion times.
// The unmapped baseline and the mapped run share the machine via Reset
// (the page allocator is deterministic, so both runs see the same
// addresses and the assembled program caches across them).
func MeasureOverlap(m *Machine, mode nipt.Mode, iters int) OverlapResult {
	base, _ := runOverlap(m, mode, iters, false)
	m.Reset()
	mappedTime, bytes := runOverlap(m, mode, iters, true)
	return OverlapResult{
		BaselineTime: base,
		MappedTime:   mappedTime,
		BytesMoved:   bytes,
		OverheadPct:  100 * (float64(mappedTime)/float64(base) - 1),
	}
}

func runOverlap(m *Machine, mode nipt.Mode, iters int, mapped bool) (sim.Time, uint64) {
	src, dst := m.Node(0), m.Node(1)
	ps := src.K.CreateProcess()
	buf, err := ps.AllocPages(1)
	if err != nil {
		panic(err)
	}
	stack, err := ps.AllocPages(1)
	if err != nil {
		panic(err)
	}
	if mapped {
		pd := dst.K.CreateProcess()
		recv, err := pd.AllocPages(1)
		if err != nil {
			panic(err)
		}
		m.MustMap(ps, buf, phys.PageSize, dst.ID, pd.PID, recv, mode)
	} else {
		// Match the cache policy so only the NIC path differs.
		if pte, ok := ps.AS.Lookup(buf.Page()); ok {
			pte.WriteThrough = true
			ps.AS.Map(buf.Page(), pte)
		}
	}
	mustSettle(m, "overlap setup")

	prog := isa.MustAssembleCached("overlap", overlapProgram, map[string]int64{
		"ITERS":   int64(iters),
		"BUF":     int64(buf),
		"BUFMASK": int64(buf) | (phys.PageSize - 1),
	})
	src.K.BindProcess(ps)
	cpu := src.CPU
	cpu.Load(prog)
	cpu.R = [8]uint32{}
	cpu.R[isa.ESP] = uint32(stack) + phys.PageSize
	start := m.Now()
	if err := cpu.Start("work"); err != nil {
		panic(err)
	}
	// Run until the CPU halts: that is the CPU-visible time. The
	// network may still be draining afterwards — that is the point.
	ok := m.RunWhile(func() bool { return !cpu.Halted() })
	if !ok && !cpu.Halted() {
		panic("core: overlap program starved")
	}
	cpuTime := m.Now() - start
	mustSettle(m, "overlap drain")
	if err := cpu.Err(); err != nil {
		panic(err)
	}
	return cpuTime, dst.NIC.Stats().BytesIn
}

// MergeWindowResult is one point of the blocked-write window sweep.
type MergeWindowResult struct {
	Window      sim.Time
	StoreGap    sim.Time
	Packets     uint64
	PktPerStore float64
}

// MeasureMergeWindow streams stores with a fixed inter-store gap through
// a blocked-write mapping on a post-boot machine, under the merge window
// of the machine's NIC config, reporting how many packets the NIC
// emitted. Windows shorter than the gap degrade to one packet per store;
// longer windows merge up to the payload bound. The window is part of
// the NIC config, so sweeping it takes a machine per window, not just a
// Reset.
func MeasureMergeWindow(m *Machine, storeGap sim.Time, stores int) MergeWindowResult {
	window := m.Cfg.NIC.MergeWindow
	s := setupPair(m, 0, 1, nipt.BlockedWriteAU)
	before := s.dst.NIC.Stats().PacketsIn
	off := vm.VAddr(0)
	for i := 0; i < stores; i++ {
		if err := s.src.UserWrite32(s.ps, s.sendVA+off, uint32(i)); err != nil {
			panic(err)
		}
		off += 4
		if off >= phys.PageSize {
			off = 0
		}
		m.RunFor(storeGap)
	}
	mustSettle(m, "merge-window drain")
	pkts := s.dst.NIC.Stats().PacketsIn - before
	return MergeWindowResult{
		Window:      window,
		StoreGap:    storeGap,
		Packets:     pkts,
		PktPerStore: float64(pkts) / float64(stores),
	}
}
