package kernel

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/vm"
)

// The map() system call (§2): "a kernel call that performs protection
// checking and stores memory mapping information on the network
// interface". Once established, sends proceed entirely at user level.

// OutMapping is the kernel's record of one outgoing mapping segment: the
// unit the §4.4 invalidation protocol tears down and a write fault
// re-establishes.
type OutMapping struct {
	Proc          *Process
	VPN           vm.VPN
	SegmentOffset uint32 // any offset inside the segment (selects Lo/Hi)
	Seg           nipt.OutMapping
	SegStart      uint32 // local start offset of the segment in its page
	SegEnd        uint32 // local end offset (exclusive)
	Dst           packet.NodeID
	DstPID        int
	DstVPN        vm.VPN // remote virtual page, for re-establishment
	Invalidated   bool
}

// Mapping is the handle returned by Map, used for Unmap.
type Mapping struct {
	Proc         *Process
	SendVA       vm.VAddr
	Bytes        int
	Dst          packet.NodeID
	DstPID       int
	RecvVA       vm.VAddr
	Mode         nipt.Mode
	records      []*OutMapping
	remoteFrames []phys.PageNum
	kernel       *Kernel
	unmapped     bool
}

// pageSeg is one planned NIPT segment for one local page.
type pageSeg struct {
	vpn       vm.VPN
	segStart  uint32 // within the local page
	segEnd    uint32 // exclusive
	remoteIdx int    // index into the remote page range
	dstShift  int32
}

// planSegments computes the per-page NIPT segments realizing a mapping
// of bytes from sendVA onto recvVA, honoring the hardware's constraint
// that a page can be split between at most two mappings at one offset
// (§3.2). It returns an error for shapes the hardware cannot express —
// which is exactly the paper's rule that mapped data structures must
// have granularity exceeding the page size.
func planSegments(sendVA, recvVA vm.VAddr, bytes int) ([]pageSeg, error) {
	if bytes <= 0 {
		return nil, fmt.Errorf("kernel: mapping must cover at least one byte")
	}
	delta := int64(recvVA) - int64(sendVA)
	firstRemote := recvVA.Page()
	var segs []pageSeg
	for addr := int64(sendVA); addr < int64(sendVA)+int64(bytes); {
		pageBase := addr &^ (phys.PageSize - 1)
		pageEnd := pageBase + phys.PageSize
		end := int64(sendVA) + int64(bytes)
		if end > pageEnd {
			end = pageEnd
		}
		s, e := uint32(addr-pageBase), uint32(end-pageBase)
		vpn := vm.VAddr(addr).Page()

		// Split the covered portion where the remote page changes.
		for s < e {
			raddr := addr + delta
			rpage := raddr &^ (phys.PageSize - 1)
			segEndAddr := pageBase + int64(e)
			if crossing := addr + (rpage + phys.PageSize - raddr); crossing < segEndAddr {
				segEndAddr = crossing
			}
			segE := uint32(segEndAddr - pageBase)
			segs = append(segs, pageSeg{
				vpn:       vpn,
				segStart:  s,
				segEnd:    segE,
				remoteIdx: int((rpage - int64(firstRemote)*phys.PageSize) / phys.PageSize),
				dstShift:  int32(raddr - rpage - int64(s)),
			})
			addr = pageBase + int64(segE)
			s = segE
		}
	}
	// Enforce the two-segments-per-page, one-split-point hardware shape.
	byPage := make(map[vm.VPN][]pageSeg)
	for _, sg := range segs {
		byPage[sg.vpn] = append(byPage[sg.vpn], sg)
	}
	for vpn, list := range byPage {
		switch len(list) {
		case 1:
			sg := list[0]
			if sg.segStart != 0 && sg.segEnd != phys.PageSize {
				return nil, fmt.Errorf("kernel: mapping leaves both ends of page %#x unmapped; "+
					"mapped data structures must exceed the page size (§3.2)", uint32(vpn))
			}
		case 2:
			if list[0].segStart != 0 || list[1].segEnd != phys.PageSize ||
				list[0].segEnd != list[1].segStart {
				return nil, fmt.Errorf("kernel: page %#x needs more than one split point", uint32(vpn))
			}
		default:
			return nil, fmt.Errorf("kernel: page %#x needs %d mappings; hardware supports two",
				uint32(vpn), len(list))
		}
	}
	return segs, nil
}

// remotePageCount returns how many remote pages a mapping touches.
func remotePageCount(recvVA vm.VAddr, bytes int) int {
	first := uint32(recvVA) >> phys.PageShift
	last := (uint32(recvVA) + uint32(bytes) - 1) >> phys.PageShift
	return int(last-first) + 1
}

// Map establishes an outgoing mapping: bytes starting at sendVA in p's
// address space will propagate to recvVA in process dstPID on node dst,
// with the given update mode. The returned Mapping resolves through the
// future once the destination kernel has replied.
func (k *Kernel) Map(p *Process, sendVA vm.VAddr, bytes int, dst packet.NodeID, dstPID int,
	recvVA vm.VAddr, mode nipt.Mode) (*Mapping, *Future) {
	fut := k.newFuture()
	m := &Mapping{
		Proc: p, SendVA: sendVA, Bytes: bytes, Dst: dst, DstPID: dstPID,
		RecvVA: recvVA, Mode: mode, kernel: k,
	}
	if mode == nipt.Unmapped {
		fut.resolve(fmt.Errorf("kernel: cannot map with mode unmapped"), nil)
		return m, fut
	}
	if dst == k.id {
		fut.resolve(fmt.Errorf("kernel: self-mappings are not supported"), nil)
		return m, fut
	}
	if k.down[dst] != nil {
		fut.resolve(k.peerDownErr(dst), nil)
		return m, fut
	}
	segs, err := planSegments(sendVA, recvVA, bytes)
	if err != nil {
		fut.resolve(err, nil)
		return m, fut
	}
	// Protection checks: the process must own every local page, writable
	// and not a command page, and the NIPT segments must be free.
	for _, sg := range segs {
		e, ok := p.AS.Lookup(sg.vpn)
		if !ok || !e.Present || e.Command {
			fut.resolve(fmt.Errorf("kernel: send buffer page %#x not mapped", uint32(sg.vpn)), nil)
			return m, fut
		}
		if !e.Writable {
			fut.resolve(fmt.Errorf("kernel: send buffer page %#x not writable", uint32(sg.vpn)), nil)
			return m, fut
		}
		if err := k.checkSegmentFree(e.Frame, sg); err != nil {
			fut.resolve(err, nil)
			return m, fut
		}
	}
	// The kernel-side setup cost, then the cross-kernel round trip.
	k.eng.After(k.cfg.MapSetupTime, func() {
		req := k.sendMapInReq(dst, dstPID, recvVA.Page(), remotePageCount(recvVA, bytes))
		req.OnDone(func(r *Future) {
			if r.Err() != nil {
				fut.resolve(r.Err(), nil)
				return
			}
			m.remoteFrames = r.Frames()
			k.installMapping(m, segs)
			k.stats.Maps++
			fut.resolve(nil, r.Frames())
		})
	})
	return m, fut
}

// checkSegmentFree verifies the NIPT can hold the planned segment: none
// of its words, taken from segStart in steps of 4, may lie in a mapped
// half of the page. It reads only the one or two halves the segment
// touches, and reports the first conflicting word.
func (k *Kernel) checkSegmentFree(frame phys.PageNum, sg pageSeg) error {
	t := k.nic.Table()
	e := t.At(frame)
	split, off, mode := e.Split(), sg.segStart, e.Lo.Mode
	if split != 0 && (off >= split || mode == nipt.Unmapped) {
		// The high half holds the first word that can conflict.
		if off < split {
			off += (split - off + 3) &^ 3
		}
		mode = t.Out(frame, split).Mode
	}
	if off < sg.segEnd && mode != nipt.Unmapped {
		return fmt.Errorf("kernel: page %#x offset %d already mapped out", uint32(frame), off)
	}
	return nil
}

// installMapping writes the planned segments into the NIPT and the
// process page table.
func (k *Kernel) installMapping(m *Mapping, segs []pageSeg) {
	for _, sg := range segs {
		frame, _ := m.Proc.AS.FrameOf(sg.vpn)
		out := nipt.OutMapping{
			Mode:     m.Mode,
			DstNode:  m.Dst,
			DstPage:  m.remoteFrames[sg.remoteIdx],
			DstShift: sg.dstShift,
		}
		k.installSegment(frame, sg, out)
		k.Obs.Inc(obs.CtrKernelMaps)
		rec := &OutMapping{
			Proc:          m.Proc,
			VPN:           sg.vpn,
			SegmentOffset: sg.segStart,
			Seg:           out,
			SegStart:      sg.segStart,
			SegEnd:        sg.segEnd,
			Dst:           m.Dst,
			DstPID:        m.DstPID,
			DstVPN:        m.RecvVA.Page() + vm.VPN(sg.remoteIdx),
		}
		m.records = append(m.records, rec)
		m.Proc.outMaps[sg.vpn] = append(m.Proc.outMaps[sg.vpn], rec)
		key := exportKey{node: m.Dst, page: out.DstPage}
		k.exports[key] = append(k.exports[key], rec)

		// Mapped-out pages are configured for write-through caching
		// (§3.1) — automatic-update pages so the NIC snoops every store,
		// deliberate-update pages so main memory is current when the
		// DMA engine reads it. Flush any write-back residue.
		if pte, ok := m.Proc.AS.Lookup(sg.vpn); ok && !pte.WriteThrough {
			pte.WriteThrough = true
			m.Proc.AS.Map(sg.vpn, pte)
			if k.box != nil {
				k.box.Cache.FlushPage(frame)
			}
		}
	}
}

// installSegment writes one planned segment into a NIPT entry,
// preserving any existing other-half mapping.
func (k *Kernel) installSegment(frame phys.PageNum, sg pageSeg, out nipt.OutMapping) {
	t := k.nic.Table()
	if sg.segStart == 0 && sg.segEnd == phys.PageSize {
		t.MapOut(frame, out)
		return
	}
	split := sg.segStart // the high half starts the segment...
	if split == 0 {
		split = sg.segEnd // ...or the low half ends it
	}
	e := t.Entry(frame)
	lo, hi := e.Lo, nipt.OutMapping{}
	switch e.Split() {
	case 0:
	case split:
		hi = *t.Out(frame, split)
	default:
		panic("kernel: conflicting split points (checkSegmentFree missed)")
	}
	if sg.segStart == 0 {
		lo = out
	} else {
		hi = out
	}
	t.MapOutSplit(frame, split, lo, hi)
}

// removeSegment clears one installed segment from a NIPT entry; a page
// left with no mapped half becomes unsplit.
func (k *Kernel) removeSegment(frame phys.PageNum, rec *OutMapping) {
	t := k.nic.Table()
	*t.Out(frame, rec.SegmentOffset) = nipt.OutMapping{}
	if !t.MappedOut(frame) {
		t.UnmapOut(frame)
	}
}

// Unmap tears down a mapping: NIPT segments cleared locally, then the
// destination kernel releases its mapped-in state.
func (k *Kernel) Unmap(m *Mapping) *Future {
	fut := k.newFuture()
	if m.unmapped {
		fut.resolve(fmt.Errorf("kernel: mapping already unmapped"), nil)
		return fut
	}
	m.unmapped = true
	for _, rec := range m.records {
		if frame, ok := rec.Proc.AS.FrameOf(rec.VPN); ok && !rec.Invalidated {
			k.removeSegment(frame, rec)
			k.Obs.Inc(obs.CtrKernelUnmaps)
		}
		k.dropExportRecord(rec)
		// Remove from the process's per-page list.
		list := rec.Proc.outMaps[rec.VPN]
		for i, r := range list {
			if r == rec {
				rec.Proc.outMaps[rec.VPN] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if rec.Invalidated {
			// Writable again: nothing maps out of this page anymore.
			rec.Proc.AS.SetWritable(rec.VPN, len(rec.Proc.outMaps[rec.VPN]) == 0 || !anyInvalidated(rec.Proc.outMaps[rec.VPN]))
		}
	}
	k.stats.Unmaps++
	req := k.sendUnmapInReq(m.Dst, m.remoteFrames)
	req.OnDone(func(r *Future) {
		err := r.Err()
		if errors.Is(err, fault.ErrPeerDown) {
			// The local teardown above is complete, and the remote
			// mapped-in state died with the peer: unmap succeeded.
			err = nil
		}
		fut.resolve(err, nil)
	})
	return fut
}

func anyInvalidated(recs []*OutMapping) bool {
	for _, r := range recs {
		if r.Invalidated {
			return true
		}
	}
	return false
}

func (k *Kernel) dropExportRecord(rec *OutMapping) {
	key := exportKey{node: rec.Dst, page: rec.Seg.DstPage}
	list := k.exports[key]
	for i, r := range list {
		if r == rec {
			k.exports[key] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(k.exports[key]) == 0 {
		delete(k.exports, key)
	}
}

// GrantCommandPages maps the command pages controlling the physical
// pages behind [dataVA, dataVA+pages·4096) into p's address space at
// cmdVA (§4.2): "the kernel gives a user-level process access to a
// command page by mapping that command page into the process's virtual
// memory space."
func (k *Kernel) GrantCommandPages(p *Process, dataVA, cmdVA vm.VAddr, pages int) error {
	if dataVA.Offset() != 0 || cmdVA.Offset() != 0 {
		return fmt.Errorf("kernel: command page grant must be page aligned")
	}
	for i := 0; i < pages; i++ {
		frame, ok := p.AS.FrameOf(dataVA.Page() + vm.VPN(i))
		if !ok {
			return fmt.Errorf("kernel: data page %#x not mapped", uint32(dataVA.Page())+uint32(i))
		}
		p.AS.Map(cmdVA.Page()+vm.VPN(i), vm.PTE{
			Frame: frame, Present: true, Writable: true, Command: true,
		})
	}
	return nil
}

// RevokeCommandPages removes command page mappings (e.g. before the
// kernel reallocates the underlying physical page to another process).
func (k *Kernel) RevokeCommandPages(p *Process, cmdVA vm.VAddr, pages int) {
	for i := 0; i < pages; i++ {
		p.AS.Unmap(cmdVA.Page() + vm.VPN(i))
	}
}
