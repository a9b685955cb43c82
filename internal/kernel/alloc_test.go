package kernel_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/phys"
	"repro/internal/vm"
)

// allocFrames allocates n pages to p and returns their frames in
// virtual-address order.
func allocFrames(t *testing.T, p *kernel.Process, n int) (vm.VAddr, []phys.PageNum) {
	t.Helper()
	va, err := p.AllocPages(n)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]phys.PageNum, n)
	for i := range frames {
		frames[i], _ = p.FrameOf(va + vm.VAddr(i*phys.PageSize))
	}
	return va, frames
}

// After Boot the allocator hands out frames ascending from the first
// frame above the kernel rings. Returned frames are reused last in first
// out, before any frame never handed out, and FreePageCount counts both
// kinds. The same holds after a Reset.
func TestFrameAllocator(t *testing.T) {
	m := core.New(core.ConfigFor(2, 2, nic.GenEISAPrototype))
	k := m.Node(0).K
	ring := kernel.RingPages(m.Cfg.NodeCount())
	for _, when := range []string{"after New", "after Reset"} {
		total := m.Cfg.MemPagesPerNode - ring
		if got := k.FreePageCount(); got != total {
			t.Fatalf("%s: %d free pages, want %d", when, got, total)
		}
		p := k.CreateProcess()
		va, frames := allocFrames(t, p, 4)
		for i, f := range frames {
			if want := phys.PageNum(ring + i); f != want {
				t.Fatalf("%s: page %d got frame %d, want %d", when, i, f, want)
			}
		}
		for _, i := range []int{1, 3} {
			if err := m.Await(k.EvictPage(p, (va + vm.VAddr(i*phys.PageSize)).Page())); err != nil {
				t.Fatal(err)
			}
		}
		if got := k.FreePageCount(); got != total-2 {
			t.Fatalf("%s: %d free pages after returning 2 of 4, want %d", when, got, total-2)
		}
		_, again := allocFrames(t, k.CreateProcess(), 3)
		if want := []phys.PageNum{frames[3], frames[1], phys.PageNum(ring + 4)}; fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("%s: frames %v after returning %d then %d, want %v", when, again, frames[1], frames[3], want)
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		m.Reset()
	}
}

// Invariant 4 covers every free frame: NIPT state on a returned frame
// or on one never handed out is reported. The planted state has importer
// bookkeeping, so only the free-frame check can catch it.
func TestInvariantsCoverEveryFreeFrame(t *testing.T) {
	cfg := core.ConfigFor(2, 2, nic.GenEISAPrototype)
	never := phys.PageNum(cfg.MemPagesPerNode - 1)
	for _, returned := range []bool{true, false} {
		m := core.New(cfg)
		k := m.Node(0).K
		f := never
		if returned {
			p := k.CreateProcess()
			va, frames := allocFrames(t, p, 1)
			if err := m.Await(k.EvictPage(p, va.Page())); err != nil {
				t.Fatal(err)
			}
			f = frames[0]
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		k.MarkImported(f, 1)
		err := k.CheckInvariants()
		if want := fmt.Sprintf("free frame %d has NIPT state", f); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("returned=%v: CheckInvariants = %v, want %q", returned, err, want)
		}
	}
}
