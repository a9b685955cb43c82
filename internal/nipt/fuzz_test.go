package nipt

import (
	"fmt"
	"testing"

	"repro/internal/phys"
)

// flatTable is the table as it was before chunking: one entry per page
// in a flat array, the high halves of split pages in a side map.
// FuzzTableMatchesFlat holds the chunked table to it.
type flatTable struct {
	entries []Entry
	hi      map[phys.PageNum]*OutMapping
}

func (t *flatTable) out(p phys.PageNum, off uint32) *OutMapping {
	e := &t.entries[p]
	if e.split != 0 && off >= e.split {
		return t.hi[p]
	}
	return &e.Lo
}

func (t *flatTable) mappedOut(p phys.PageNum) bool {
	e := &t.entries[p]
	return e.Lo.Mode != Unmapped || (e.split != 0 && t.hi[p].Mode != Unmapped)
}

func (t *flatTable) reset() {
	clear(t.entries)
	clear(t.hi)
}

func (t *flatTable) mapOut(p phys.PageNum, m OutMapping) {
	t.unmapOut(p)
	t.entries[p].Lo = m
}

func (t *flatTable) mapOutSplit(p phys.PageNum, split uint32, lo, hi OutMapping) {
	e := &t.entries[p]
	h := t.hi[p]
	if h == nil {
		h = new(OutMapping)
		t.hi[p] = h
	}
	e.Lo, e.split, *h = lo, split, hi
}

func (t *flatTable) unmapOut(p phys.PageNum) {
	e := &t.entries[p]
	if e.split != 0 {
		*t.hi[p] = OutMapping{}
		delete(t.hi, p)
	}
	e.Lo, e.split = OutMapping{}, 0
}

func (t *flatTable) clear(p phys.PageNum) {
	t.unmapOut(p)
	t.entries[p] = Entry{}
}

func (t *flatTable) resolve(a phys.PAddr) (m *OutMapping, remote phys.PAddr, ok bool) {
	m = t.out(a.Page(), a.Offset())
	if m.Mode == Unmapped {
		return nil, 0, false
	}
	off := int64(a.Offset()) + int64(m.DstShift)
	if off < 0 || off >= phys.PageSize {
		return nil, 0, false
	}
	return m, m.DstPage.Addr(uint32(off)), true
}

func (t *flatTable) resolveRun(a phys.PAddr, words int) (m *OutMapping, remote phys.PAddr, n int) {
	p, off := a.Page(), a.Offset()
	m = t.out(p, off)
	roff := int64(off) + int64(m.DstShift)
	if m.Mode == Unmapped || roff < 0 || roff >= phys.PageSize {
		return nil, 0, 0
	}
	end := uint32(phys.PageSize)
	if s := t.entries[p].split; off < s {
		end = s
	}
	n = min(words, int(end-off+3)/4, int(phys.PageSize-roff+3)/4)
	return m, m.DstPage.Addr(uint32(roff)), n
}

// fuzzPages is the fuzzed table's size: three whole chunks and part of
// a fourth, so the last chunk covers pages past the end of the table.
const fuzzPages = 3*chunkPages + 21

// fuzzSteps bounds the operations one input runs: each is followed by a
// check of every page.
const fuzzSteps = 64

// fuzzInput hands out the fuzzer's bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

func (in *fuzzInput) page() phys.PageNum { return phys.PageNum(in.next() % fuzzPages) }

func (in *fuzzInput) offset() uint32 { return uint32(in.next()|in.next()<<8) % phys.PageSize }

// mapping draws an outgoing mapping of any mode, with a shift that can
// push offsets outside the remote page.
func (in *fuzzInput) mapping() OutMapping {
	return OutMapping{
		Mode:     Mode(in.next() % 4),
		DstPage:  phys.PageNum(in.next()),
		DstShift: int32(int16(in.next()|in.next()<<8)) % phys.PageSize,
	}
}

// built reports which chunks of t are built.
func built(t *Table) []bool {
	b := make([]bool, len(t.dir))
	for i, c := range t.dir {
		b[i] = c != &unbuilt
	}
	return b
}

// panics reports whether f panics.
func panics(f func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	f()
	return false
}

// FuzzTableMatchesFlat drives the chunked table and the flat one
// through the same random sequence of writes (MapOut, MapOutSplit,
// UnmapOut, Clear, flag writes through Entry, mapping writes through
// Out), resets, reads and out-of-range accesses. After every operation
// each page must read the same through At, Out, MappedOut, Resolve and
// ResolveRun on both; a chunk must be built exactly when a writer has
// touched one of its pages, and never move; the reads must build
// nothing; the shared unbuilt chunk must still be zero; and every Entry
// pointer handed out must still alias its page's live entry.
func FuzzTableMatchesFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzInput(raw)
		tb := New(fuzzPages)
		ref := &flatTable{entries: make([]Entry, fuzzPages), hi: map[phys.PageNum]*OutMapping{}}
		if tb.Pages() != fuzzPages || len(tb.dir) != 4 {
			t.Fatalf("table of %d pages has %d pages in %d chunks", fuzzPages, tb.Pages(), len(tb.dir))
		}
		chunks := make([]*chunk, len(tb.dir)) // each chunk as first built
		held := map[phys.PageNum]*Entry{}     // Entry pointers handed out
		wrote := func(p phys.PageNum) {       // records the chunk a writer built
			if i := p >> chunkShift; chunks[i] == nil {
				chunks[i] = tb.dir[i]
			}
		}

		// compare checks every page of tb against ref without building
		// a chunk, then through Out on pages whose chunk is built.
		compare := func(step int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d (%s): %s", step, what, fmt.Sprintf(format, args...))
			}
			if unbuilt != (chunk{}) {
				fail("the shared unbuilt chunk was written")
			}
			before := built(tb)
			for p := phys.PageNum(0); p < fuzzPages; p++ {
				want := ref.entries[p]
				if got := tb.At(p); got != want {
					fail("page %d: At = %+v, flat entry %+v", p, got, want)
				}
				if got, want := tb.MappedOut(p), ref.mappedOut(p); got != want {
					fail("page %d: MappedOut = %v, flat %v", p, got, want)
				}
				offs := []uint32{0, phys.PageSize - 4, phys.PageSize - 1}
				if s := want.split; s != 0 {
					offs = append(offs, s-1, s)
				}
				for _, off := range offs {
					a := p.Addr(off)
					m, remote, ok := tb.Resolve(a)
					rm, rremote, rok := ref.resolve(a)
					if ok != rok || remote != rremote || (m == nil) != (rm == nil) || (m != nil && *m != *rm) {
						fail("Resolve(%#x) = %v %#x %v, flat %v %#x %v", uint32(a), m, uint32(remote), ok, rm, uint32(rremote), rok)
					}
					for _, words := range []int{1, 7, 1100} {
						m, remote, n := tb.ResolveRun(a, words)
						rm, rremote, rn := ref.resolveRun(a, words)
						if n != rn || remote != rremote || (m == nil) != (rm == nil) || (m != nil && *m != *rm) {
							fail("ResolveRun(%#x, %d) = %v %#x %d, flat %v %#x %d", uint32(a), words, m, uint32(remote), n, rm, uint32(rremote), rn)
						}
					}
				}
			}
			after := built(tb)
			for i := range after {
				if after[i] != before[i] {
					fail("reads built chunk %d", i)
				}
				if after[i] != (chunks[i] != nil) || (chunks[i] != nil && tb.dir[i] != chunks[i]) {
					fail("chunk %d: built %v, written %v, moved %v", i, after[i], chunks[i] != nil, chunks[i] != nil && tb.dir[i] != chunks[i])
				}
			}
			// Out on built chunks: the same mapping as the flat table,
			// and the one Resolve hands out, for SnoopRoom's pointer
			// comparisons.
			for p := phys.PageNum(0); p < fuzzPages; p++ {
				if !after[p>>chunkShift] {
					continue
				}
				offs := []uint32{0, phys.PageSize - 4}
				if s := ref.entries[p].split; s != 0 {
					offs = append(offs, s)
				}
				for _, off := range offs {
					if got, want := *tb.Out(p, off), *ref.out(p, off); got != want {
						fail("page %d: Out(%d) = %+v, flat %+v", p, off, got, want)
					}
					if m, _, ok := tb.Resolve(p.Addr(off)); ok && m != tb.Out(p, off) {
						fail("page %d: Resolve(%d) and Out disagree on the mapping's storage", p, off)
					}
				}
			}
			for p, e := range held {
				if e != tb.Entry(p) || *e != ref.entries[p] {
					fail("page %d: a held Entry pointer no longer aliases the live entry", p)
				}
			}
		}

		for step := 0; len(in) > 0 && step < fuzzSteps; step++ {
			op := in.next()
			var what string
			switch op % 9 {
			case 0:
				what = "MapOut"
				p, m := in.page(), in.mapping()
				tb.MapOut(p, m)
				ref.mapOut(p, m)
				wrote(p)
			case 1:
				what = "MapOutSplit"
				p, split := in.page(), 1+in.offset()%(phys.PageSize-1)
				lo, hi := in.mapping(), in.mapping()
				tb.MapOutSplit(p, split, lo, hi)
				ref.mapOutSplit(p, split, lo, hi)
				wrote(p)
			case 2:
				what = "UnmapOut"
				p := in.page()
				tb.UnmapOut(p)
				ref.unmapOut(p)
				wrote(p)
			case 3:
				what = "Clear"
				p := in.page()
				tb.Clear(p)
				ref.clear(p)
				wrote(p)
			case 4:
				what = "Entry flags"
				p, flags := in.page(), in.next()
				e := tb.Entry(p)
				held[p] = e
				wrote(p)
				for _, en := range []*Entry{e, &ref.entries[p]} {
					en.MappedIn, en.RecvInterrupt, en.KernelRing = flags&1 != 0, flags&2 != 0, flags&4 != 0
				}
			case 5:
				what = "Out write"
				p, off, m := in.page(), in.offset(), in.mapping()
				*tb.Out(p, off) = m
				*ref.out(p, off) = m
				wrote(p)
			case 6:
				what = "Reset"
				tb.Reset()
				ref.reset()
			case 7:
				what = "read"
				// compare reads fixed offsets of every page; this reads
				// any offset and run length. Neither may build a chunk.
				a, words := in.page().Addr(in.offset()), 1+in.next()
				m, remote, ok := tb.Resolve(a)
				rm, rremote, rok := ref.resolve(a)
				if ok != rok || remote != rremote || (m == nil) != (rm == nil) || (m != nil && *m != *rm) {
					t.Fatalf("step %d: Resolve(%#x) = %v %#x %v, flat %v %#x %v", step, uint32(a), m, uint32(remote), ok, rm, uint32(rremote), rok)
				}
				m, remote, n := tb.ResolveRun(a, words)
				rm, rremote, rn := ref.resolveRun(a, words)
				if n != rn || remote != rremote || (m == nil) != (rm == nil) || (m != nil && *m != *rm) {
					t.Fatalf("step %d: ResolveRun(%#x, %d) = %v %#x %d, flat %v %#x %d", step, uint32(a), words, m, uint32(remote), n, rm, uint32(rremote), rn)
				}
			case 8:
				what = "out of range"
				p := phys.PageNum(fuzzPages + in.next()%(2*chunkPages))
				a := p.Addr(in.offset())
				for name, f := range map[string]func(){
					"At":          func() { tb.At(p) },
					"MappedOut":   func() { tb.MappedOut(p) },
					"Entry":       func() { tb.Entry(p) },
					"Out":         func() { tb.Out(p, 0) },
					"MapOut":      func() { tb.MapOut(p, OutMapping{Mode: SingleWriteAU}) },
					"MapOutSplit": func() { tb.MapOutSplit(p, 8, OutMapping{}, OutMapping{}) },
					"UnmapOut":    func() { tb.UnmapOut(p) },
					"Clear":       func() { tb.Clear(p) },
					"Resolve":     func() { tb.Resolve(a) },
					"ResolveRun":  func() { tb.ResolveRun(a, 4) },
				} {
					if !panics(f) {
						t.Fatalf("step %d: %s(page %d) of a %d-page table did not panic", step, name, p, fuzzPages)
					}
				}
			}
			compare(step, what)
		}
	})
}
