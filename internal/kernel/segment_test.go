package kernel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
)

// Map's conflict check reads only the one or two page halves a segment
// touches. It must agree with a scan of every word of the segment
// through Out, down to the first conflicting offset it reports, for
// unsplit and split pages, either half mapped, and segments starting
// on or off a word boundary, before, at or past the split.
func TestCheckSegmentFreeMatchesWordScan(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	k, table := m.Node(0).K, m.Node(0).NIC.Table()
	frame := phys.PageNum(kernel.RingPages(m.Cfg.NodeCount()) + 3)
	scan := func(start, end uint32) error {
		for off := start; off < end; off += 4 {
			if table.Out(frame, off).Mode != nipt.Unmapped {
				return fmt.Errorf("kernel: page %#x offset %d already mapped out", uint32(frame), off)
			}
		}
		return nil
	}
	mapping := func(r *rand.Rand) nipt.OutMapping {
		return nipt.OutMapping{Mode: nipt.Mode(r.Intn(2) * int(nipt.SingleWriteAU)), DstNode: 1}
	}
	// near draws an offset in [0, limit) close to x half of the time.
	near := func(r *rand.Rand, x, limit int) uint32 {
		if r.Intn(2) == 0 {
			return uint32(r.Intn(limit))
		}
		return uint32(min(max(x+r.Intn(13)-6, 0), limit-1))
	}
	r := rand.New(rand.NewSource(1))
	conflicts := 0
	for i := 0; i < 20_000; i++ {
		split := uint32(0)
		if r.Intn(3) > 0 {
			split = 1 + uint32(r.Intn(phys.PageSize-1))
			table.MapOutSplit(frame, split, mapping(r), mapping(r))
		} else {
			table.MapOut(frame, mapping(r))
		}
		start := near(r, int(split), phys.PageSize)
		end := start + 1 + near(r, int(split)-int(start), phys.PageSize-int(start))
		got, want := k.CheckSegmentFree(frame, start, end), scan(start, end)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("split %d, halves %v/%v, segment [%d,%d): got %v, want %v", split,
				table.At(frame).Lo.Mode, table.Out(frame, phys.PageSize-1).Mode, start, end, got, want)
		}
		if want != nil {
			conflicts++
		}
	}
	if conflicts == 0 || conflicts == 20_000 {
		t.Fatalf("%d of 20000 segments conflicted; the draw covers only one outcome", conflicts)
	}
}
