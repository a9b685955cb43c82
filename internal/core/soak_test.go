package core

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// TestSixteenNodeSoak runs mixed traffic — automatic-update streams,
// deliberate-update block transfers, and continuous map churn — across
// the full 16-node machine the paper describes, then audits every
// kernel's bookkeeping and the machine-wide packet accounting.
func TestSixteenNodeSoak(t *testing.T) {
	cfg := ConfigFor(4, 4, nic.GenEISAPrototype)
	cfg.Kernel.Policy = kernel.InvalidateProtocol
	m := New(cfg)
	rng := rand.New(rand.NewSource(8))
	n := len(m.Nodes)

	type flow struct {
		src, dst *Node
		ps, pd   *kernel.Process
		sVA, dVA vm.VAddr
		mode     nipt.Mode
		cmdPA    phys.PAddr
		seq      uint32
	}
	var flows []*flow

	// One process per node; a mesh of mixed-mode flows.
	procs := make([]*kernel.Process, n)
	for i := range procs {
		procs[i] = m.Node(i).K.CreateProcess()
	}
	modes := []nipt.Mode{nipt.SingleWriteAU, nipt.BlockedWriteAU, nipt.DeliberateUpdate}
	for i := 0; i < n; i++ {
		for _, d := range []int{(i + 1) % n, (i + 5) % n} {
			if d == i {
				continue
			}
			f := &flow{src: m.Node(i), dst: m.Node(d), ps: procs[i], pd: procs[d],
				mode: modes[rng.Intn(len(modes))]}
			var err error
			if f.sVA, err = f.ps.AllocPages(1); err != nil {
				t.Fatal(err)
			}
			if f.dVA, err = f.pd.AllocPages(1); err != nil {
				t.Fatal(err)
			}
			m.MustMap(f.ps, f.sVA, phys.PageSize, f.dst.ID, f.pd.PID, f.dVA, f.mode)
			if f.mode == nipt.DeliberateUpdate {
				if err := f.src.K.GrantCommandPages(f.ps, f.sVA, f.sVA+0x4000_0000, 1); err != nil {
					t.Fatal(err)
				}
				tr, fault := f.ps.AS.Translate(f.sVA+0x4000_0000, true)
				if fault != nil {
					t.Fatal(fault)
				}
				f.cmdPA = tr.PA
			}
			flows = append(flows, f)
		}
	}
	if err := m.RunUntilIdle(500_000_000); err != nil {
		t.Fatal(err)
	}

	// Traffic rounds.
	for round := 0; round < 12; round++ {
		for _, f := range flows {
			f.seq++
			switch f.mode {
			case nipt.DeliberateUpdate:
				// Stage data then command a 64-word transfer.
				for w := 0; w < 64; w++ {
					if err := f.src.UserWrite32(f.ps, f.sVA+vm.VAddr(4*w), f.seq*1000+uint32(w)); err != nil {
						t.Fatal(err)
					}
				}
				for {
					_, swapped, _ := f.src.Cache.LockedCmpxchg(f.cmdPA, 0, 64)
					if swapped {
						break
					}
					if !m.Eng.Step() {
						t.Fatal("engine dry during DMA start")
					}
				}
			default:
				for w := 0; w < 16; w++ {
					if err := f.src.UserWrite32(f.ps, f.sVA+vm.VAddr(4*w), f.seq*1000+uint32(w)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if err := m.RunUntilIdle(2_000_000_000); err != nil {
			t.Fatal(err)
		}
		// Spot-check a random flow's delivery this round.
		f := flows[rng.Intn(len(flows))]
		words := 16
		if f.mode == nipt.DeliberateUpdate {
			words = 64
		}
		for w := 0; w < words; w++ {
			v, err := f.dst.UserRead32(f.pd, f.dVA+vm.VAddr(4*w))
			if err != nil {
				t.Fatal(err)
			}
			if v != f.seq*1000+uint32(w) {
				t.Fatalf("round %d flow %d->%d word %d: %d want %d",
					round, f.src.ID, f.dst.ID, w, v, f.seq*1000+uint32(w))
			}
		}
	}

	// Accounting and invariants across the whole machine.
	var out, in, drops uint64
	for i := 0; i < n; i++ {
		s := m.Node(i).NIC.Stats()
		out += s.PacketsOut
		in += s.PacketsIn
		drops += s.Drops()
		if err := m.Node(i).K.CheckInvariants(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if drops != 0 {
		t.Fatalf("%d drops during clean soak", drops)
	}
	if out != in {
		t.Fatalf("packet conservation: %d out, %d in", out, in)
	}
	ns := m.Net.Stats()
	if ns.Injected != ns.Delivered {
		t.Fatalf("mesh conservation: %d injected, %d delivered", ns.Injected, ns.Delivered)
	}
	t.Logf("soak complete at %v simulated: %d packets, %d wire bytes", m.Eng.Now(), ns.Delivered, ns.TotalWireByte)
}
