package kernel

import (
	"fmt"

	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
)

// CheckInvariants audits the kernel's bookkeeping against the hardware
// state it is supposed to mirror. Tests call it after churn; it returns
// the first violation found.
//
// Invariants:
//
//  1. Every live (non-invalidated) export record's NIPT segment is
//     installed on the frame currently backing its source page.
//  2. Every mapped-out NIPT segment is owned by exactly one live export
//     record, or is a kernel-ring outbox.
//  3. Every frame marked MappedIn has importer bookkeeping, or is a
//     kernel-ring inbox.
//  4. No free frame, returned or never handed out, has NIPT state or
//     backs any process page.
//  5. Each peer's two ring pages hold the ring layout's NIPT entries or
//     none, and hold them when this kernel has ring state for the peer:
//     the pair's first contact installs them (installRing).
func (k *Kernel) CheckInvariants() error {
	table := k.nic.Table()

	// Index live export records by frame+segment-start.
	type segKey struct {
		frame phys.PageNum
		start uint32
	}
	owned := make(map[segKey]*OutMapping)
	for key, recs := range k.exports {
		for _, rec := range recs {
			if rec.Invalidated {
				continue
			}
			frame, ok := rec.Proc.AS.FrameOf(rec.VPN)
			if !ok {
				// Paged out: no hardware state expected.
				continue
			}
			sk := segKey{frame, rec.SegStart}
			if prev, dup := owned[sk]; dup {
				return fmt.Errorf("kernel%d: two live records own frame %d seg %d (%p, %p)",
					k.id, frame, rec.SegStart, prev, rec)
			}
			owned[sk] = rec
			// Invariant 1: the segment really is installed.
			seg := table.Out(frame, rec.SegmentOffset)
			if seg.Mode != rec.Seg.Mode || seg.DstPage != rec.Seg.DstPage ||
				seg.DstNode != rec.Seg.DstNode {
				return fmt.Errorf("kernel%d: record for frame %d seg %d not installed (have %v->%d, want %v->%d)",
					k.id, frame, rec.SegStart, seg.Mode, seg.DstPage, rec.Seg.Mode, rec.Seg.DstPage)
			}
			if key.node != rec.Dst || key.page != rec.Seg.DstPage {
				return fmt.Errorf("kernel%d: export index key %v disagrees with record (%d,%d)",
					k.id, key, rec.Dst, rec.Seg.DstPage)
			}
		}
	}

	// Invariant 2: walk the whole NIPT. Ring pages are exempt from the
	// record accounting; invariant 5 audits them.
	for f := phys.PageNum(0); int(f) < table.Pages(); f++ {
		e := table.At(f)
		if int(f) < k.nodes-1 { // a ring outbox
			continue
		}
		check := func(m *nipt.OutMapping, start uint32) error {
			if m.Mode == nipt.Unmapped {
				return nil
			}
			if _, ok := owned[segKey{f, start}]; !ok {
				return fmt.Errorf("kernel%d: orphan NIPT segment on frame %d at %d (%v -> node %d page %d)",
					k.id, f, start, m.Mode, m.DstNode, m.DstPage)
			}
			return nil
		}
		if err := check(&e.Lo, 0); err != nil {
			return err
		}
		if s := e.Split(); s != 0 {
			if err := check(table.Out(f, s), s); err != nil {
				return err
			}
		}
		// Invariant 3.
		if _, ring := k.inboxOwner(f); e.MappedIn && !ring && len(k.imports[f]) == 0 {
			return fmt.Errorf("kernel%d: frame %d mapped in with no importer bookkeeping", k.id, f)
		}
		if !e.MappedIn && len(k.imports[f]) > 0 {
			return fmt.Errorf("kernel%d: frame %d has importers but is not mapped in", k.id, f)
		}
	}

	// Invariant 4: free frames are really free.
	used := make(map[phys.PageNum]int)
	for pid, proc := range k.procs {
		for _, vpn := range proc.AS.Pages() {
			if frame, ok := proc.AS.FrameOf(vpn); ok {
				used[frame] = pid
			}
		}
	}
	isFree := func(f phys.PageNum) error {
		if pid, inUse := used[f]; inUse {
			return fmt.Errorf("kernel%d: free frame %d backs a page of pid %d", k.id, f, pid)
		}
		if table.MappedOut(f) || table.At(f).MappedIn {
			return fmt.Errorf("kernel%d: free frame %d has NIPT state", k.id, f)
		}
		return nil
	}
	for _, f := range k.free {
		if err := isFree(f); err != nil {
			return err
		}
	}
	for f := k.fresh; int(f) < k.mem.Pages(); f++ {
		if err := isFree(f); err != nil {
			return err
		}
	}

	// Invariant 5: rings are installed whole, as the layout says, and
	// before this kernel uses them.
	for b := packet.NodeID(0); int(b) < k.nodes; b++ {
		if b == k.id {
			continue
		}
		out, in := table.At(outbox(k.id, b)), table.At(inbox(k.nodes, k.id, b))
		installed := out == nipt.Entry{
			Lo:         nipt.OutMapping{Mode: nipt.BlockedWriteAU, DstNode: b, DstPage: inbox(k.nodes, b, k.id)},
			KernelRing: true,
		} && in == nipt.Entry{MappedIn: true, KernelRing: true}
		if !installed && (out != nipt.Entry{} || in != nipt.Entry{} || k.peers[b] != nil) {
			return fmt.Errorf("kernel%d: ring pair with node %d not installed as laid out (ring state %v): outbox %+v, inbox %+v",
				k.id, b, k.peers[b] != nil, out, in)
		}
	}
	return nil
}
