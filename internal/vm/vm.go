// Package vm implements per-process virtual memory: page tables with the
// attributes the SHRIMP design depends on. Two attributes matter beyond
// the usual present/writable/user bits:
//
//   - WriteThrough — the kernel caches mapped-out automatic-update pages
//     write-through so the network interface can snoop every store
//     (paper §2, §3);
//   - Command — the PTE maps a network-interface command page rather
//     than DRAM (paper §4.2); accesses translate into the command
//     address space and are decoded by the NIC, not memory.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/phys"
)

// VAddr is a process virtual address.
type VAddr uint32

// VPN is a virtual page number.
type VPN uint32

// Page returns the virtual page containing a.
func (a VAddr) Page() VPN { return VPN(uint32(a) >> phys.PageShift) }

// Offset returns the byte offset of a within its page.
func (a VAddr) Offset() uint32 { return uint32(a) & (phys.PageSize - 1) }

// Addr returns the virtual address of byte off within page p.
func (p VPN) Addr(off uint32) VAddr { return VAddr(uint32(p)<<phys.PageShift | off&(phys.PageSize-1)) }

// PTE is one page table entry.
type PTE struct {
	Frame        phys.PageNum
	Present      bool
	Writable     bool
	WriteThrough bool
	Command      bool
}

// FaultReason classifies a translation fault.
type FaultReason uint8

const (
	// NotPresent: no mapping, or the page was paged out.
	NotPresent FaultReason = iota
	// Protection: a write hit a read-only PTE. This is also how the
	// §4.4 mapping-invalidation protocol surfaces: invalidated outgoing
	// mappings are marked read-only, and the kernel re-establishes them
	// on the resulting fault.
	Protection
)

func (r FaultReason) String() string {
	if r == NotPresent {
		return "not-present"
	}
	return "protection"
}

// Fault describes a failed translation.
type Fault struct {
	VA     VAddr
	Write  bool
	Reason FaultReason
}

func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	return fmt.Sprintf("vm: %s fault (%s) at %#x", f.Reason, op, uint32(f.VA))
}

// AddressSpace is one process's page table. cmdBase is the physical base
// of the NIC command space on the owning node. gen counts page-table
// mutations. The node's translation cache, the kernel MemBox micro-TLB,
// keys its entries on it, so a remap, unmap, or protection change
// invalidates any stale cached translation without a shootdown walk.
// Both the ISA CPU and the harness user accessors (core.Node's
// UserRead32, UserWrite32, UserReadBytes) translate through that TLB;
// Translate here is the page-table walk behind its misses.
type AddressSpace struct {
	pt      map[VPN]PTE
	cmdBase phys.PAddr
	gen     uint64
}

// NewAddressSpace returns an empty address space for a node whose
// command space begins at cmdBase.
func NewAddressSpace(cmdBase phys.PAddr) *AddressSpace {
	return &AddressSpace{pt: make(map[VPN]PTE), cmdBase: cmdBase}
}

// Map installs a PTE for virtual page p.
func (s *AddressSpace) Map(p VPN, e PTE) {
	s.pt[p] = e
	s.gen++
}

// Unmap removes the mapping for virtual page p.
func (s *AddressSpace) Unmap(p VPN) {
	delete(s.pt, p)
	s.gen++
}

// Gen returns the page-table generation: it advances on every Map,
// Unmap, and SetWritable, so a cached translation tagged with an older
// generation is stale by construction.
func (s *AddressSpace) Gen() uint64 { return s.gen }

// Lookup returns the PTE for p, if present in the table (the entry may
// still be non-Present, meaning paged out).
func (s *AddressSpace) Lookup(p VPN) (PTE, bool) {
	e, ok := s.pt[p]
	return e, ok
}

// Pages returns the mapped virtual page numbers in ascending order.
func (s *AddressSpace) Pages() []VPN {
	out := make([]VPN, 0, len(s.pt))
	for p := range s.pt {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetWritable updates the writable bit of an existing mapping. It
// reports whether the mapping existed. The §4.4 invalidation protocol
// uses this to mark invalidated source pages read-only.
func (s *AddressSpace) SetWritable(p VPN, w bool) bool {
	e, ok := s.pt[p]
	if !ok {
		return false
	}
	e.Writable = w
	s.pt[p] = e
	s.gen++
	return true
}

// Translation is a successful lookup.
type Translation struct {
	PA           phys.PAddr
	WriteThrough bool
	Command      bool
}

// Translate resolves a virtual address for a read or write access.
func (s *AddressSpace) Translate(a VAddr, write bool) (Translation, *Fault) {
	e, ok := s.pt[a.Page()]
	if !ok || !e.Present {
		return Translation{}, &Fault{VA: a, Write: write, Reason: NotPresent}
	}
	if write && !e.Writable {
		return Translation{}, &Fault{VA: a, Write: true, Reason: Protection}
	}
	base := phys.PAddr(uint32(e.Frame) << phys.PageShift)
	if e.Command {
		base += s.cmdBase
	}
	return Translation{
		PA:           base + phys.PAddr(a.Offset()),
		WriteThrough: e.WriteThrough || e.Command,
		Command:      e.Command,
	}, nil
}

// FrameOf returns the physical frame backing virtual page p, for
// kernel-side bookkeeping. ok is false for absent or command mappings.
func (s *AddressSpace) FrameOf(p VPN) (phys.PageNum, bool) {
	e, found := s.pt[p]
	if !found || !e.Present || e.Command {
		return 0, false
	}
	return e.Frame, true
}
