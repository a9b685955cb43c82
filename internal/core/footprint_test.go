package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
)

// TestBootFootprint pins what booting a machine costs: NIPT entries of
// a few words, no NIPT chunk and no kernel ring state until a pair of
// kernels talks, and a build that allocates only what it uses. Both
// machines are sized as the allreduce benchmark sizes its own, with
// 1,024 working pages beside the 2(n-1) ring pages. The bounds sit above
// the measured costs (16x16: 1.7 MB in 16,300 objects, 2.0 MB in 18,800
// under -race; 32x32: 7.2 MB in 66,600 objects, 8.3 MB in 77,700 under
// -race) and below those of installing every ring's NIPT entries at
// boot (4.8 MB and 57.5 MB), let alone NIPT entries and frame slots
// built for every page (15.3 MB at 16x16).
func TestBootFootprint(t *testing.T) {
	if size := unsafe.Sizeof(nipt.Entry{}); size > 24 {
		t.Errorf("nipt.Entry is %d bytes, want at most 24", size)
	}
	for _, c := range []struct {
		side, maxObjects int
		maxMB            float64
	}{
		{16, 21_000, 2.5},
		{32, 85_000, 9.5},
	} {
		cfg := ConfigFor(c.side, c.side, nic.GenEISAPrototype)
		cfg.MemPagesPerNode = kernel.RingPages(cfg.NodeCount()) + 1024
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := New(cfg)
		runtime.ReadMemStats(&after)
		mb, n := float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs
		t.Logf("%dx%d: New allocated %.1f MB in %d objects", c.side, c.side, mb, n)
		if mb >= c.maxMB || n >= uint64(c.maxObjects) {
			t.Errorf("%dx%d: New allocated %.1f MB in %d objects, want under %.1f MB and %d objects",
				c.side, c.side, mb, n, c.maxMB, c.maxObjects)
		}

		noRingState := func(when string) {
			t.Helper()
			for _, n := range m.Nodes {
				if p := n.K.Peers(); len(p) != 0 {
					t.Fatalf("%dx%d %s: node %d holds ring state for %v", c.side, c.side, when, n.ID, p)
				}
			}
		}
		noRingState("after New")
		for _, n := range m.Nodes {
			if built := n.NIC.Table().BuiltChunks(); built != 0 {
				t.Fatalf("%dx%d: New built %d NIPT chunks on node %d", c.side, c.side, built, n.ID)
			}
		}
		if c.side > 16 {
			continue
		}
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
}
