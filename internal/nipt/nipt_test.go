package nipt

import (
	"testing"
	"testing/quick"

	"repro/internal/phys"
)

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		Unmapped:         "unmapped",
		SingleWriteAU:    "single-write",
		BlockedWriteAU:   "blocked-write",
		DeliberateUpdate: "deliberate",
	}
	for m, s := range cases {
		if m.String() != s {
			t.Fatalf("%d -> %q", m, m.String())
		}
	}
	if !SingleWriteAU.Automatic() || !BlockedWriteAU.Automatic() {
		t.Fatal("AU modes must report Automatic")
	}
	if DeliberateUpdate.Automatic() || Unmapped.Automatic() {
		t.Fatal("non-AU modes must not report Automatic")
	}
}

func TestWholePageMapping(t *testing.T) {
	tb := New(8)
	if tb.Pages() != 8 {
		t.Fatal("pages")
	}
	out := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 42}
	tb.MapOut(3, out)

	for _, off := range []uint32{0, 100, phys.PageSize - 4} {
		m, remote, ok := tb.Resolve(phys.PageNum(3).Addr(off))
		if !ok || m.Mode != SingleWriteAU {
			t.Fatalf("resolve off %d failed", off)
		}
		if remote != phys.PageNum(42).Addr(off) {
			t.Fatalf("remote %#x for off %d", uint32(remote), off)
		}
	}
	// Other pages unaffected.
	if _, _, ok := tb.Resolve(phys.PageNum(2).Addr(0)); ok {
		t.Fatal("unmapped page resolved")
	}
	if !tb.MappedOut(3) || tb.MappedOut(2) {
		t.Fatal("MappedOut flags wrong")
	}
	tb.UnmapOut(3)
	if _, _, ok := tb.Resolve(phys.PageNum(3).Addr(0)); ok {
		t.Fatal("resolve after unmap")
	}
}

func TestSplitPageMapping(t *testing.T) {
	// §3.2: a page split between two mappings at a configurable offset.
	tb := New(4)
	lo := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 10, DstShift: 256}
	hi := OutMapping{Mode: DeliberateUpdate, DstNode: 2, DstPage: 20, DstShift: -1024}
	tb.MapOutSplit(1, 1024, lo, hi)

	m, remote, ok := tb.Resolve(phys.PageNum(1).Addr(100))
	if !ok || m.Mode != SingleWriteAU || remote != phys.PageNum(10).Addr(356) {
		t.Fatalf("lo half: %v %#x %v", m, uint32(remote), ok)
	}
	m, remote, ok = tb.Resolve(phys.PageNum(1).Addr(2048))
	if !ok || m.Mode != DeliberateUpdate || remote != phys.PageNum(20).Addr(1024) {
		t.Fatalf("hi half: %v %#x %v", m, uint32(remote), ok)
	}
	// Exactly at the split: hi half.
	if m, _, _ := tb.Resolve(phys.PageNum(1).Addr(1024)); m.Mode != DeliberateUpdate {
		t.Fatal("split boundary belongs to the hi half")
	}
	// Just below: lo half.
	if m, _, _ := tb.Resolve(phys.PageNum(1).Addr(1020)); m.Mode != SingleWriteAU {
		t.Fatal("below split belongs to the lo half")
	}
}

func TestSplitWithUnmappedHalf(t *testing.T) {
	tb := New(2)
	hi := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 5, DstShift: -2048}
	tb.MapOutSplit(0, 2048, OutMapping{}, hi)
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(100)); ok {
		t.Fatal("unmapped lo half resolved")
	}
	if _, remote, ok := tb.Resolve(phys.PageNum(0).Addr(2052)); !ok || remote != phys.PageNum(5).Addr(4) {
		t.Fatal("hi half resolution")
	}
	if !tb.MappedOut(0) {
		t.Fatal("half-mapped page should report MappedOut")
	}
}

func TestShiftOutsideRemotePageDrops(t *testing.T) {
	tb := New(2)
	// A shift that pushes high offsets past the end of the remote page.
	tb.MapOut(0, OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 3, DstShift: 2048})
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(100)); !ok {
		t.Fatal("low offset should resolve")
	}
	if _, _, ok := tb.Resolve(phys.PageNum(0).Addr(3000)); ok {
		t.Fatal("offset shifted past the remote page must not resolve")
	}
}

func TestBadSplitPanics(t *testing.T) {
	tb := New(1)
	for _, split := range []uint32{0, phys.PageSize, phys.PageSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("split %d accepted", split)
				}
			}()
			tb.MapOutSplit(0, split, OutMapping{}, OutMapping{})
		}()
	}
}

func TestResolveConsistentWithOut(t *testing.T) {
	// Property: Resolve agrees with Out on which half governs
	// any offset, for arbitrary split points.
	f := func(split uint16, off uint16) bool {
		s := uint32(split)%(phys.PageSize-1) + 1
		o := uint32(off) % phys.PageSize
		tb := New(1)
		lo := OutMapping{Mode: SingleWriteAU, DstPage: 1}
		hi := OutMapping{Mode: BlockedWriteAU, DstPage: 2}
		tb.MapOutSplit(0, s, lo, hi)
		m, _, ok := tb.Resolve(phys.PageNum(0).Addr(o))
		if !ok {
			return false
		}
		wantHi := o >= s
		return (m.Mode == BlockedWriteAU) == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Clear returns an entry to its boot state: unsplit, nothing mapped
// out, no flags.
func TestClearResetsEntry(t *testing.T) {
	tb := New(2)
	hi := OutMapping{Mode: SingleWriteAU, DstNode: 1, DstPage: 5}
	tb.MapOutSplit(1, 2048, OutMapping{Mode: BlockedWriteAU, DstNode: 2}, hi)
	e := tb.Entry(1)
	e.MappedIn, e.RecvInterrupt, e.KernelRing = true, true, true
	tb.Clear(1)
	if *e != (Entry{}) || tb.MappedOut(1) {
		t.Fatalf("cleared entry %+v, mapped out %v", *e, tb.MappedOut(1))
	}
}
