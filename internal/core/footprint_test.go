package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/nic"
	"repro/internal/nipt"
)

// TestBootFootprint pins what booting a machine costs: NIPT entries of
// a few words, a 256-node build that allocates only what it uses, and
// kernels that hold no ring state until they talk to a peer. The bounds
// sit above the measured costs (about 4.9 MB and 18,300 objects, 5.1 MB
// and 21,000 objects under -race; the NIPT and DRAM frame-slot chunks
// are objects of their own) and below those of NIPT entries and frame
// slots built for every page (15.3 MB), caches with their line storage
// built up front and per-node free-page lists (27.7 MB), let alone
// tables sized for every peer and wide entries (78 MB, 92,000 objects).
func TestBootFootprint(t *testing.T) {
	if size := unsafe.Sizeof(nipt.Entry{}); size > 24 {
		t.Errorf("nipt.Entry is %d bytes, want at most 24", size)
	}

	// The allreduce benchmark's machine: 16x16 EISA nodes with 1,024
	// working pages beside the 2(n-1) ring pages.
	cfg := ConfigFor(16, 16, nic.GenEISAPrototype)
	cfg.MemPagesPerNode = 2*(cfg.NodeCount()-1) + 1024
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New(cfg)
	runtime.ReadMemStats(&after)
	const maxMB, maxObjects = 8, 24_000
	mb, n := float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs
	t.Logf("New allocated %.1f MB in %d objects", mb, n)
	if mb >= maxMB || n >= maxObjects {
		t.Errorf("New allocated %.1f MB in %d objects, want under %d MB and %d objects", mb, n, maxMB, maxObjects)
	}

	noRingState := func(when string) {
		t.Helper()
		for _, n := range m.Nodes {
			if p := n.K.Peers(); len(p) != 0 {
				t.Fatalf("%s: node %d holds ring state for %v", when, n.ID, p)
			}
		}
	}
	noRingState("after New")
	// Talk across the machine, then reset: ring state goes with it.
	src, dst := m.Node(0), m.Node(cfg.NodeCount()-1)
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	sendVA, _ := ps.AllocPages(1)
	recvVA, _ := pd.AllocPages(1)
	m.MustMap(ps, sendVA, 4096, dst.ID, pd.PID, recvVA, nipt.SingleWriteAU)
	if len(src.K.Peers()) == 0 {
		t.Fatal("a Map built no ring state on its source")
	}
	m.Reset()
	noRingState("after Reset")
}
