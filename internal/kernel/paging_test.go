package kernel_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
)

func pinConfig() core.Config {
	cfg := core.ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Kernel.Policy = kernel.PinPages
	return cfg
}

func invalidateConfig() core.Config {
	cfg := core.ConfigFor(2, 1, nic.GenEISAPrototype)
	cfg.Kernel.Policy = kernel.InvalidateProtocol
	return cfg
}

func TestPinPolicyRefusesEviction(t *testing.T) {
	m := core.New(pinConfig())
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)

	// The mapped-in page on B is pinned: eviction must be refused.
	if err := m.Await(b.K.EvictPage(pb, recvVA.Page())); err == nil {
		t.Fatal("eviction of a pinned mapped-in page succeeded")
	}
	// An unshared page evicts fine.
	extra, _ := pb.AllocPages(1)
	if err := m.Await(b.K.EvictPage(pb, extra.Page())); err != nil {
		t.Fatalf("eviction of unshared page: %v", err)
	}
	if b.K.Stats().Evictions != 1 || b.K.Stats().EvictionsRefused != 1 {
		t.Fatalf("stats: %+v", b.K.Stats())
	}
}

func TestEvictionOfOutgoingMappedPage(t *testing.T) {
	// Pages with only outgoing mappings can be replaced freely; the
	// mapping information is restored on page-in (§4.4).
	m := core.New(pinConfig())
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)

	if err := a.UserWrite32(pa, sendVA, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := m.Await(a.K.EvictPage(pa, sendVA.Page())); err != nil {
		t.Fatalf("evicting outgoing-mapped page: %v", err)
	}
	// The page is gone; bring it back in and verify both content and
	// mapping survive.
	if err := a.K.PageInForTest(pa, sendVA.Page()); err != nil {
		t.Fatalf("page-in: %v", err)
	}
	if v, _ := a.UserRead32(pa, sendVA); v != 7 {
		t.Fatalf("page content lost across eviction: %d", v)
	}
	if err := a.UserWrite32(pa, sendVA+4, 9); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.UserRead32(pb, recvVA+4); v != 9 {
		t.Fatalf("mapping not restored after page-in: %d", v)
	}
}

func TestInvalidateProtocolEndToEnd(t *testing.T) {
	// Evict a mapped-in page under the invalidation protocol; the
	// sender's mapping goes read-only, a subsequent ISA store faults,
	// the kernel re-establishes the mapping against the new frame, and
	// the store lands.
	m := core.New(invalidateConfig())
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	stack, _ := pa.AllocPages(1)
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)

	if err := a.UserWrite32(pa, sendVA, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
	oldFrame, _ := pb.FrameOf(recvVA)

	// Replace the receive page. All importer acks must arrive first.
	if err := m.Await(b.K.EvictPage(pb, recvVA.Page())); err != nil {
		t.Fatalf("evict: %v", err)
	}
	// Claim the freed frame for something else, so the eventual page-in
	// demonstrably lands in a different frame (as real replacement
	// would).
	if _, err := pb.AllocPages(1); err != nil {
		t.Fatal(err)
	}
	if got := a.K.Stats().InvalidatesServed; got != 1 {
		t.Fatalf("sender served %d invalidations", got)
	}
	// Sender's page is now read-only.
	if pte, ok := pa.AS.Lookup(sendVA.Page()); !ok || pte.Writable {
		t.Fatal("sender page still writable after invalidation")
	}
	// The old NIPT entry is gone, so a (hypothetical) stray packet to
	// the old frame would be dropped.
	if b.NIC.Table().Entry(oldFrame).MappedIn {
		t.Fatal("old frame still marked mapped-in")
	}

	// Now the sender stores through the ISA — the write faults, the
	// kernel re-establishes the mapping (paging the destination back
	// in), and the instruction retries.
	prog := isa.MustAssemble("poke", `
poke:
	mov	dword [SBUF], 42
	hlt
`, map[string]int64{"SBUF": int64(sendVA)})
	a.K.BindProcess(pa)
	a.CPU.Load(prog)
	a.CPU.R = [8]uint32{}
	a.CPU.R[isa.ESP] = uint32(stack) + phys.PageSize
	if err := a.CPU.Start("poke"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if err := a.CPU.Err(); err != nil {
		t.Fatalf("cpu aborted: %v", err)
	}
	if !a.CPU.Halted() {
		t.Fatal("cpu did not halt")
	}
	if a.K.Stats().ReestablishFaults != 1 {
		t.Fatalf("expected 1 re-establish fault, got %d", a.K.Stats().ReestablishFaults)
	}
	// The store landed in the NEW frame of the receiver's page.
	newFrame, ok := pb.FrameOf(recvVA)
	if !ok {
		t.Fatal("receiver page not resident after re-establish")
	}
	if newFrame == oldFrame {
		t.Fatal("page-in reused the same frame; test is vacuous")
	}
	if v, _ := b.UserRead32(pb, recvVA); v != 42 {
		t.Fatalf("store after re-establish = %d, want 42", v)
	}
	// And the sender page is writable again.
	if pte, _ := pa.AS.Lookup(sendVA.Page()); !pte.Writable {
		t.Fatal("sender page still read-only after re-establish")
	}
}

func TestDemandPageInOnFault(t *testing.T) {
	// A not-present fault on an evicted private page triggers demand
	// page-in and instruction retry.
	m := core.New(pinConfig())
	a := m.Node(0)
	pa := a.K.CreateProcess()
	data, _ := pa.AllocPages(1)
	stack, _ := pa.AllocPages(1)

	if err := a.UserWrite32(pa, data, 1234); err != nil {
		t.Fatal(err)
	}
	if err := m.Await(a.K.EvictPage(pa, data.Page())); err != nil {
		t.Fatal(err)
	}
	prog := isa.MustAssemble("reader", `
read:
	mov	eax, [DATA]
	mov	dword [DATA+4], 5
	hlt
`, map[string]int64{"DATA": int64(data)})
	a.K.BindProcess(pa)
	a.CPU.Load(prog)
	a.CPU.R = [8]uint32{}
	a.CPU.R[isa.ESP] = uint32(stack) + phys.PageSize
	if err := a.CPU.Start("read"); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if err := a.CPU.Err(); err != nil {
		t.Fatalf("cpu aborted: %v", err)
	}
	if a.CPU.R[isa.EAX] != 1234 {
		t.Fatalf("eax = %d, want 1234 (content restored)", a.CPU.R[isa.EAX])
	}
	if a.K.Stats().PageIns != 1 {
		t.Fatalf("page-ins = %d", a.K.Stats().PageIns)
	}
	if v, _ := a.UserRead32(pa, data+4); v != 5 {
		t.Fatalf("store after page-in = %d", v)
	}
}

// TestEvictUntouchedPageBuildsNoNIPTChunk: evicting a private page that
// never had NIPT state clears its entry without building storage for
// it — the table's built chunks stay as boot left them.
func TestEvictUntouchedPageBuildsNoNIPTChunk(t *testing.T) {
	m := core.New(pinConfig())
	a := m.Node(0)
	pa := a.K.CreateProcess()
	table := a.NIC.Table()
	built := table.BuiltChunks()
	// Allocate past frame 63, the end of the table's first 64-page
	// chunk: boot wrote nothing beyond it.
	va, _ := pa.AllocPages(1)
	for f, _ := pa.FrameOf(va); f < 64; f, _ = pa.FrameOf(va) {
		va, _ = pa.AllocPages(1)
	}
	if err := m.Await(a.K.EvictPage(pa, va.Page())); err != nil {
		t.Fatal(err)
	}
	if got := table.BuiltChunks(); got != built {
		t.Fatalf("evicting never-mapped page %#x: built NIPT chunks %d -> %d", uint32(va), built, got)
	}
}

// TestSwapCopyKeepsWrittenExtent evicts a private page and pages it back
// in: the swap copy holds the page's bytes up to its last non-zero one,
// and the page reads back whole.
func TestSwapCopyKeepsWrittenExtent(t *testing.T) {
	oneWord := make([]byte, phys.PageSize)
	copy(oneWord, []byte{0xef, 0xbe, 0xad, 0xde})
	full := make([]byte, phys.PageSize)
	for i := range full {
		full[i] = byte(i%251 + 1)
	}
	for _, c := range []struct {
		name   string
		page   []byte // what the page holds after the stores
		stored int    // leading bytes of page the process stores
		swap   int    // bytes the swap copy keeps
	}{
		{"one word", oneWord, 4, 4},
		{"last word written", full, phys.PageSize, phys.PageSize},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := core.New(pinConfig())
			a := m.Node(0)
			p := a.K.CreateProcess()
			va, err := p.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.UserWriteBytes(p, va, c.page[:c.stored]); err != nil {
				t.Fatal(err)
			}
			if err := m.RunUntilIdle(5_000_000); err != nil {
				t.Fatal(err)
			}
			if err := m.Await(a.K.EvictPage(p, va.Page())); err != nil {
				t.Fatal(err)
			}
			if got := len(a.K.SwapCopy(p, va.Page())); got != c.swap {
				t.Fatalf("swap copy holds %d bytes, want %d", got, c.swap)
			}
			if err := a.K.PageInForTest(p, va.Page()); err != nil {
				t.Fatal(err)
			}
			if a.K.SwapCopy(p, va.Page()) != nil {
				t.Fatal("swap copy kept after page-in")
			}
			got := make([]byte, phys.PageSize)
			if err := a.UserReadBytes(p, va, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c.page) {
				t.Fatal("page changed across eviction and page-in")
			}
		})
	}
}
