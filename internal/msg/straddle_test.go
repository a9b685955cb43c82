package msg

import (
	"bytes"
	"testing"

	"repro/internal/kernel"
	"repro/internal/phys"
	"repro/internal/vm"
)

// straddleLayout gives the pair's sender process two consecutive virtual
// pages at va whose frames are not adjacent: a second process, q, takes
// the frame between them.
func straddleLayout(t *testing.T, p *Pair) (va vm.VAddr, q *kernel.Process, qva vm.VAddr) {
	t.Helper()
	alloc := func(proc *kernel.Process) vm.VAddr {
		va, err := proc.AllocPages(1)
		if err != nil {
			t.Fatal(err)
		}
		return va
	}
	va, q = alloc(p.PS), p.S.K.CreateProcess()
	qva = alloc(q)
	if next := alloc(p.PS); next != va+phys.PageSize {
		t.Fatalf("second page at %#x, want %#x", uint32(next), uint32(va+phys.PageSize))
	}
	lo, _ := p.PS.FrameOf(va)
	mid, _ := q.FrameOf(qva)
	hi, _ := p.PS.FrameOf(va + phys.PageSize)
	if mid != lo+1 || hi != lo+2 {
		t.Fatalf("frames %d, %d, %d: want q's page between the sender's two", lo, mid, hi)
	}
	return va, q, qva
}

// A word access that straddles a page boundary translates both pages:
// the bytes past the boundary belong to the next virtual page, not to
// whatever frame physically follows. The harness accessors and the ISA
// port share one split (kernel.MemBox.LoadAS and StoreAS), and a fault
// on the second page stops the access before any byte moves.
func TestPageStraddlingWordAccesses(t *testing.T) {
	p := NewPair(newEISA(), 0, 1)
	va, q, qva := straddleLayout(t, p)
	at := va + phys.PageSize - 2

	if err := p.S.UserWrite32(p.PS, at, 0xaabbccdd); err != nil {
		t.Fatal(err)
	}
	if v, err := p.S.UserRead32(p.PS, at); err != nil || v != 0xaabbccdd {
		t.Fatalf("UserRead32 across the boundary: %#x, %v", v, err)
	}
	got := make([]byte, 8)
	if err := p.S.UserReadBytes(p.PS, at-2, got); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0, 0, 0xdd, 0xcc, 0xbb, 0xaa, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("UserReadBytes around the boundary: % x, want % x", got, want)
	}
	other := make([]byte, phys.PageSize)
	if err := p.S.UserReadBytes(q, qva, other); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(other, make([]byte, phys.PageSize)) {
		t.Fatal("the straddling store reached the other process's page")
	}

	// A read-only second page faults the whole store: not even the bytes
	// on the writable first page move.
	p.PS.AS.SetWritable(va.Page()+1, false)
	cache, bus := p.S.Cache.Stats(), p.S.Xbus.Stats()
	err := p.S.UserWrite32(p.PS, at, 0x11223344)
	if f, ok := err.(*vm.Fault); !ok || f.Reason != vm.Protection || f.VA != va+phys.PageSize {
		t.Fatalf("store onto a read-only second page: %v, want a protection fault at %#x", err, uint32(va+phys.PageSize))
	}
	if p.S.Cache.Stats() != cache || p.S.Xbus.Stats() != bus {
		t.Fatal("the faulting store reached the cache or the bus")
	}
	if v, _ := p.S.UserRead32(p.PS, at); v != 0xaabbccdd {
		t.Fatalf("the faulting store changed memory to %#x", v)
	}

	// The ISA port splits the same way as the harness, also when the
	// load before the store has left both pages in the micro-TLB.
	isaPair, harness := NewPair(newEISA(), 0, 1), NewPair(newEISA(), 0, 1)
	isaVA, isaQ, isaQVA := straddleLayout(t, isaPair)
	hVA, hQ, hQVA := straddleLayout(t, harness)
	isaPair.SSyms["TGT"] = int64(isaVA + phys.PageSize - 2)
	isaPair.RunSender("straddle", "straddle:\n\tmov eax, [TGT]\n\tmov dword [TGT], 0xaabbccdd\n\thlt\n", "straddle", nil)
	if _, err := harness.S.UserRead32(harness.PS, hVA+phys.PageSize-2); err != nil {
		t.Fatal(err)
	}
	if err := harness.S.UserWrite32(harness.PS, hVA+phys.PageSize-2, 0xaabbccdd); err != nil {
		t.Fatal(err)
	}
	read := func(p *Pair, proc *kernel.Process, va vm.VAddr, n int) []byte {
		out := make([]byte, n)
		if err := p.S.UserReadBytes(proc, va, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(read(isaPair, isaPair.PS, isaVA, 2*phys.PageSize), read(harness, harness.PS, hVA, 2*phys.PageSize)) {
		t.Fatal("the sender's pages differ between the ISA store and the harness store")
	}
	if !bytes.Equal(read(isaPair, isaQ, isaQVA, phys.PageSize), read(harness, hQ, hQVA, phys.PageSize)) {
		t.Fatal("the other process's page differs between the ISA store and the harness store")
	}
}
