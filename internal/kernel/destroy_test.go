package kernel_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
)

func TestDestroyProcessReleasesEverything(t *testing.T) {
	cfg := core.ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Kernel.Policy = kernel.InvalidateProtocol
	m := core.New(cfg)
	a, b := m.Node(0), m.Node(1)
	victim := a.K.CreateProcess()
	peer := b.K.CreateProcess()

	freeBefore := a.K.FreePageCount()

	// The victim both sends and receives.
	outVA, _ := victim.AllocPages(1)
	inVA, _ := victim.AllocPages(1)
	peerRecv, _ := peer.AllocPages(1)
	peerSend, _ := peer.AllocPages(1)
	m.MustMap(victim, outVA, phys.PageSize, b.ID, peer.PID, peerRecv, nipt.SingleWriteAU)
	m.MustMap(peer, peerSend, phys.PageSize, a.ID, victim.PID, inVA, nipt.SingleWriteAU)
	// Grant it command pages too.
	if err := a.K.GrantCommandPages(victim, outVA, outVA+0x4000_0000, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}

	inFrame, _ := victim.FrameOf(inVA)
	if !a.NIC.Table().Entry(inFrame).MappedIn {
		t.Fatal("setup: victim page not mapped in")
	}

	if err := m.Await(a.K.DestroyProcess(victim)); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}

	// All frames returned.
	if got := a.K.FreePageCount(); got != freeBefore {
		t.Fatalf("free pages %d, want %d", got, freeBefore)
	}
	// The process is gone.
	if _, ok := a.K.Process(victim.PID); ok {
		t.Fatal("process still registered")
	}
	// The peer's mapped-in state for the victim's sends was released.
	peerFrame, _ := peer.FrameOf(peerRecv)
	if b.NIC.Table().Entry(peerFrame).MappedIn {
		t.Fatal("peer receive page still mapped in")
	}
	// The peer's outgoing mapping toward the victim was invalidated
	// (its page is read-only now).
	if pte, _ := peer.AS.Lookup(peerSend.Page()); pte.Writable {
		t.Fatal("peer's mapping into the dead process still writable")
	}
	// The victim's old in-frame no longer accepts traffic.
	if a.NIC.Table().Entry(inFrame).MappedIn {
		t.Fatal("victim frame still mapped in after destroy")
	}
	// Kernel bookkeeping is coherent on both nodes.
	if err := a.K.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.K.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyIdleProcess(t *testing.T) {
	m := core.New(core.ConfigFor(1, 1, nic.GenXpress))
	k := m.Node(0).K
	p := k.CreateProcess()
	if _, err := p.AllocPages(3); err != nil {
		t.Fatal(err)
	}
	before := k.FreePageCount()
	if err := m.Await(k.DestroyProcess(p)); err != nil {
		t.Fatal(err)
	}
	if k.FreePageCount() != before+3 {
		t.Fatal("frames not reclaimed")
	}
	// Destroying twice fails cleanly.
	if err := m.Await(k.DestroyProcess(p)); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

func TestDestroySchedulableProcess(t *testing.T) {
	m := core.New(core.ConfigFor(1, 1, nic.GenXpress))
	k := m.Node(0).K
	p := k.CreateProcess()
	if _, err := p.AllocPages(1); err != nil {
		t.Fatal(err)
	}
	k.AddRunnable(p)
	k.BindProcess(p)
	if err := m.Await(k.DestroyProcess(p)); err != nil {
		t.Fatal(err)
	}
	if k.Current() == p {
		t.Fatal("dead process still current")
	}
	if k.RunnableCount() != 0 {
		t.Fatal("dead process still runnable")
	}
}
