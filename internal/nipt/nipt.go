// Package nipt implements the Network Interface Page Table, the key
// component of the SHRIMP network interface (paper §4).
//
// The NIPT has one entry per page of the node's physical memory. Each
// entry records whether (and how) that page is mapped out to a physical
// page on another node, and whether the page is mapped in as a receive
// destination. Per §3.2, a page may be split between two outgoing
// mappings at a configurable offset, so an entry holds up to two
// outgoing halves. Few pages are split, so an entry stores its low half
// and the table keeps high halves aside. Few pages are ever mapped at
// all, so the table builds its entries in chunks of 64 pages, on the
// first write to any page of a chunk.
package nipt

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
)

// Mode is an outgoing mapping's update strategy (§2, §4.1, §4.3).
type Mode uint8

const (
	// Unmapped means the page (or page half) has no outgoing mapping.
	Unmapped Mode = iota
	// SingleWriteAU: every snooped store becomes one packet immediately.
	SingleWriteAU
	// BlockedWriteAU: consecutive same-page stores within the merge
	// window coalesce into one packet before transmission.
	BlockedWriteAU
	// DeliberateUpdate: stores update only local memory; data moves when
	// the process issues an explicit user-level DMA send command.
	DeliberateUpdate
)

func (m Mode) String() string {
	switch m {
	case Unmapped:
		return "unmapped"
	case SingleWriteAU:
		return "single-write"
	case BlockedWriteAU:
		return "blocked-write"
	case DeliberateUpdate:
		return "deliberate"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Automatic reports whether stores to the mapping propagate on their own.
func (m Mode) Automatic() bool { return m == SingleWriteAU || m == BlockedWriteAU }

// OutMapping is one outgoing mapping half: local offsets covered by this
// half send to DstPage on node DstNode, preserving the offset (shifted
// for non-page-aligned split mappings by DstShift). The destination's
// mesh coordinate is not stored: it follows from DstNode
// (packet.CoordOf).
type OutMapping struct {
	Mode     Mode
	DstNode  packet.NodeID
	DstPage  phys.PageNum
	DstShift int32 // added to the local offset to form the remote offset
}

// Entry is one NIPT entry: the state of one local physical page.
//
// Split is the byte offset at which the page divides between the low
// half (Lo) and a high half the table keeps out of line; Split == 0
// means Lo covers the whole page (the common, unsplit case) and there
// is no high half. Table.Out finds the half governing an offset.
type Entry struct {
	Lo    OutMapping
	split uint32

	// MappedIn marks the page as a receive destination referenced by a
	// remote NIPT. The kernel consults it for the paging policy (§4.4).
	MappedIn bool
	// RecvInterrupt requests a CPU interrupt when data arrives for this
	// page (set through a VM-mapped command, §4.2).
	RecvInterrupt bool
	// KernelRing marks the page as a boot-time kernel message ring.
	KernelRing bool
}

// Split returns the offset at which the page divides between its low
// and high halves, or 0 when the page is unsplit.
func (e *Entry) Split() uint32 { return e.split }

// The table builds the entries of chunkPages consecutive pages at once,
// on the first write to any of them.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// chunk holds the entries of chunkPages consecutive pages.
type chunk [chunkPages]Entry

// unbuilt stands in for every chunk no writer has touched. Readers index
// it like a built chunk and see zero entries; writers build a chunk of
// their own first, so it stays zero.
var unbuilt chunk

// Table is the page table of one network interface.
type Table struct {
	// dir holds one chunk per chunkPages pages: &unbuilt until a
	// writer touches one of its pages. A built chunk never moves, so
	// Entry and Out pointers stay valid for the table's lifetime.
	dir   []*chunk
	pages int
	// hi holds the high half of every split page, and of no other: an
	// entry with Split() != 0 has one, so unsplit pages never hash. The
	// pointers stay valid while the page stays split. Built on the
	// first split.
	hi    map[phys.PageNum]*OutMapping
	scope *obs.NodeScope // nil when metrics are disabled
}

// New returns a table covering the given number of physical pages.
func New(pages int) *Table {
	dir := make([]*chunk, (pages+chunkPages-1)>>chunkShift)
	for i := range dir {
		dir[i] = &unbuilt
	}
	return &Table{dir: dir, pages: pages}
}

// Pages returns the number of entries.
func (t *Table) Pages() int { return t.pages }

// BuiltChunks returns how many chunks of chunkPages entries writers
// have built. Footprint tests read it: a page no writer touched should
// cost no entry storage.
func (t *Table) BuiltChunks() int {
	n := 0
	for _, c := range t.dir {
		if c != &unbuilt {
			n++
		}
	}
	return n
}

// SetObs attaches the node's metrics scope (nil detaches). Resolve
// counts lookups and misses through it.
func (t *Table) SetObs(s *obs.NodeScope) { t.scope = s }

// read returns page p's entry for reading; it builds nothing, so the
// entry of an untouched page lies in unbuilt and must not be written.
func (t *Table) read(p phys.PageNum) *Entry {
	if uint(p) >= uint(t.pages) {
		panic("nipt: page beyond the table")
	}
	return &t.dir[p>>chunkShift][p%chunkPages]
}

// write returns page p's entry for writing, building its chunk first
// if no writer has touched it yet.
func (t *Table) write(p phys.PageNum) *Entry {
	if uint(p) >= uint(t.pages) {
		panic("nipt: page beyond the table")
	}
	c := t.dir[p>>chunkShift]
	if c == &unbuilt {
		c = new(chunk)
		t.dir[p>>chunkShift] = c
	}
	return &c[p%chunkPages]
}

// At returns a copy of page p's entry: the zero Entry when no writer
// has touched the page. Unlike Entry, it builds nothing, so audits and
// datapath checks that only read the table cost no memory.
func (t *Table) At(p phys.PageNum) Entry { return *t.read(p) }

// Entry returns the entry for page p. The pointer stays valid for the
// table's lifetime; callers mutate entries through it (the hardware
// analogue is the kernel writing NIPT entries through the NIC's
// configuration port).
func (t *Table) Entry(p phys.PageNum) *Entry { return t.write(p) }

// Out returns the outgoing mapping of page p governing offset off.
// Callers may mutate the mapping through it.
func (t *Table) Out(p phys.PageNum, off uint32) *OutMapping {
	return t.half(t.write(p), p, off)
}

// half returns the half of page p's entry e governing offset off.
func (t *Table) half(e *Entry, p phys.PageNum, off uint32) *OutMapping {
	if e.split != 0 && off >= e.split {
		return t.hi[p]
	}
	return &e.Lo
}

// MappedOut reports whether any part of page p has an outgoing mapping.
func (t *Table) MappedOut(p phys.PageNum) bool {
	e := t.read(p)
	return e.Lo.Mode != Unmapped || (e.split != 0 && t.hi[p].Mode != Unmapped)
}

// Reset clears every entry, returning the table to its just-built
// state. Built chunks are cleared in place and stay built, so Entry and
// Out pointers stay valid and a reset costs the chunks ever written.
func (t *Table) Reset() {
	for _, c := range t.dir {
		if c != &unbuilt {
			*c = chunk{}
		}
	}
	clear(t.hi)
}

// MapOut installs an outgoing mapping covering the whole page.
func (t *Table) MapOut(p phys.PageNum, m OutMapping) {
	t.UnmapOut(p)
	t.write(p).Lo = m
}

// MapOutSplit installs a split mapping: offsets < split use lo and
// offsets >= split use hi. split must lie inside the page. A page
// already split keeps its high half's storage, so pointers Out returned
// for it see the new mapping.
func (t *Table) MapOutSplit(p phys.PageNum, split uint32, lo, hi OutMapping) {
	if split == 0 || split >= phys.PageSize {
		panic(fmt.Sprintf("nipt: split offset %d outside page", split))
	}
	e := t.write(p)
	h := t.hi[p]
	if h == nil {
		if t.hi == nil {
			t.hi = make(map[phys.PageNum]*OutMapping)
		}
		h = new(OutMapping)
		t.hi[p] = h
	}
	e.Lo, e.split, *h = lo, split, hi
}

// UnmapOut removes all outgoing mappings from page p.
func (t *Table) UnmapOut(p phys.PageNum) {
	e := t.write(p)
	if e.split != 0 {
		*t.hi[p] = OutMapping{}
		delete(t.hi, p)
	}
	e.Lo, e.split = OutMapping{}, 0
}

// Clear returns page p's entry to its just-built state: no outgoing
// mappings and no flags. A page no writer has touched is in that state
// already, so Clear builds nothing for it.
func (t *Table) Clear(p phys.PageNum) {
	if t.read(p) == &unbuilt[p%chunkPages] {
		return
	}
	t.UnmapOut(p)
	*t.write(p) = Entry{}
}

// Resolve translates a local physical address through the table. It
// reports the mapping governing the address and the remote physical
// address the data should be delivered to, or ok=false when the address
// is not mapped out.
func (t *Table) Resolve(a phys.PAddr) (m *OutMapping, remote phys.PAddr, ok bool) {
	t.scope.Inc(obs.CtrNIPTLookups)
	p := a.Page()
	m = t.half(t.read(p), p, a.Offset())
	if m.Mode == Unmapped {
		t.scope.Inc(obs.CtrNIPTMisses)
		return nil, 0, false
	}
	off := int64(a.Offset()) + int64(m.DstShift)
	if off < 0 || off >= phys.PageSize {
		// A shifted split mapping can push an offset outside the remote
		// page; the kernel must set up splits so this cannot happen, and
		// the hardware would drop such a write.
		t.scope.Inc(obs.CtrNIPTMisses)
		return nil, 0, false
	}
	return m, m.DstPage.Addr(uint32(off)), true
}

// ResolveRun is Resolve for a run of up to words consecutive 4-byte
// writes from a, one resolution standing for all of them: it reports
// a's mapping and remote address, and how many of the words (from the
// first) Resolve would send through that same mapping into the same
// remote page. m is nil when a itself does not resolve. It counts
// nothing; the caller charges the lookups it uses with CountLookups.
func (t *Table) ResolveRun(a phys.PAddr, words int) (m *OutMapping, remote phys.PAddr, n int) {
	p, off := a.Page(), a.Offset()
	e := t.read(p)
	m = t.half(e, p, off)
	roff := int64(off) + int64(m.DstShift)
	if m.Mode == Unmapped || roff < 0 || roff >= phys.PageSize {
		return nil, 0, 0
	}
	end := uint32(phys.PageSize) // first offset past this half
	if s := e.split; off < s {
		end = s
	}
	n = min(words, int(end-off+3)/4, int(phys.PageSize-roff+3)/4)
	return m, m.DstPage.Addr(uint32(roff)), n
}

// CountLookups charges n resolved Resolve lookups to the obs counters:
// the count a run of writes ResolveRun covered would have made.
func (t *Table) CountLookups(n uint64) { t.scope.Add(obs.CtrNIPTLookups, n) }
