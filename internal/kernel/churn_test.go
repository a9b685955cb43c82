package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// TestRandomChurnPreservesInvariants drives hundreds of random
// map/unmap/traffic/evict/page-in operations across a 2x2 machine and
// audits every kernel's bookkeeping against the NIPT hardware state
// after each batch.
func TestRandomChurnPreservesInvariants(t *testing.T) {
	cfg := core.ConfigFor(2, 2, nic.GenEISAPrototype)
	cfg.Kernel.Policy = kernel.InvalidateProtocol
	m := core.New(cfg)
	rng := rand.New(rand.NewSource(20260705))

	type buffer struct {
		node *core.Node
		proc *kernel.Process
		va   vm.VAddr
	}
	type live struct {
		mapping *kernel.Mapping
		src     buffer
		dst     buffer
		seq     uint32
	}

	// A pool of processes, one per node, each with several buffers.
	var bufs []buffer
	for i := 0; i < 4; i++ {
		n := m.Node(i)
		p := n.K.CreateProcess()
		for j := 0; j < 4; j++ {
			va, err := p.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			bufs = append(bufs, buffer{n, p, va})
		}
	}
	// Track which buffers are in use as src or dst of a live mapping.
	inUse := make(map[vm.VAddr]bool)
	var mappings []*live

	checkAll := func(step int) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if err := m.Node(i).K.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}

	modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // map a fresh pair
			src := bufs[rng.Intn(len(bufs))]
			dst := bufs[rng.Intn(len(bufs))]
			if src.node.ID == dst.node.ID || inUse[src.va] || inUse[dst.va] {
				continue
			}
			mode := modes[rng.Intn(len(modes))]
			mp, fut := src.node.K.Map(src.proc, src.va, phys.PageSize,
				dst.node.ID, dst.proc.PID, dst.va, mode)
			if err := m.Await(fut); err != nil {
				t.Fatalf("step %d map: %v", step, err)
			}
			inUse[src.va], inUse[dst.va] = true, true
			mappings = append(mappings, &live{mapping: mp, src: src, dst: dst})

		case op < 6: // unmap a random live mapping
			if len(mappings) == 0 {
				continue
			}
			i := rng.Intn(len(mappings))
			l := mappings[i]
			if err := m.Await(l.src.node.K.Unmap(l.mapping)); err != nil {
				t.Fatalf("step %d unmap: %v", step, err)
			}
			inUse[l.src.va], inUse[l.dst.va] = false, false
			mappings = append(mappings[:i], mappings[i+1:]...)

		case op < 9: // traffic through a random live mapping
			if len(mappings) == 0 {
				continue
			}
			l := mappings[rng.Intn(len(mappings))]
			l.seq++
			if err := l.src.node.UserWrite32(l.src.proc, l.src.va, l.seq); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			if err := m.RunUntilIdle(20_000_000); err != nil {
				t.Fatal(err)
			}
			if v, _ := l.dst.node.UserRead32(l.dst.proc, l.dst.va); v != l.seq {
				t.Fatalf("step %d: delivered %d want %d", step, v, l.seq)
			}

		default: // evict the destination page of a live mapping
			if len(mappings) == 0 {
				continue
			}
			l := mappings[rng.Intn(len(mappings))]
			if err := m.Await(l.dst.node.K.EvictPage(l.dst.proc, l.dst.va.Page())); err != nil {
				t.Fatalf("step %d evict: %v", step, err)
			}
			// The next write faults and re-establishes; drive it via the
			// kernel-page-in path by writing through the ISA-equivalent
			// Go path after restoring residency.
			if err := l.dst.node.K.PageInForTest(l.dst.proc, l.dst.va.Page()); err != nil {
				t.Fatalf("step %d page-in: %v", step, err)
			}
			// The source mapping is invalidated; tear it down (the
			// fault-driven path is covered elsewhere — here we unmap to
			// keep the churn moving).
			if err := m.Await(l.src.node.K.Unmap(l.mapping)); err != nil {
				t.Fatalf("step %d unmap-after-evict: %v", step, err)
			}
			inUse[l.src.va], inUse[l.dst.va] = false, false
			for i, x := range mappings {
				if x == l {
					mappings = append(mappings[:i], mappings[i+1:]...)
					break
				}
			}
		}
		if err := m.RunUntilIdle(50_000_000); err != nil {
			t.Fatal(err)
		}
		if step%25 == 0 {
			checkAll(step)
		}
	}
	checkAll(400)

	// Tear everything down; the machine must end clean.
	for _, l := range mappings {
		if err := m.Await(l.src.node.K.Unmap(l.mapping)); err != nil {
			t.Fatalf("final unmap: %v", err)
		}
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkAll(401)
	for i := 0; i < 4; i++ {
		s := m.Node(i).NIC.Stats()
		if s.Drops() != 0 {
			t.Fatalf("node %d dropped packets during churn: %+v", i, s)
		}
	}
}
