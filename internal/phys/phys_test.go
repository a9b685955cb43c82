package phys

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddressArithmetic(t *testing.T) {
	a := PAddr(5*PageSize + 123)
	if a.Page() != 5 || a.Offset() != 123 {
		t.Fatalf("decompose: page=%d off=%d", a.Page(), a.Offset())
	}
	if PageNum(5).Addr(123) != a {
		t.Fatal("compose mismatch")
	}
	// Offset masking.
	if PageNum(2).Addr(PageSize+7) != PageNum(2).Addr(7) {
		t.Fatal("offset not masked to page")
	}
}

func TestAddressRoundTrip(t *testing.T) {
	f := func(page uint16, off uint16) bool {
		o := uint32(off) % PageSize
		a := PageNum(page).Addr(o)
		return a.Page() == PageNum(page) && a.Offset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory(4)
	if m.Pages() != 4 || m.Size() != 4*PageSize {
		t.Fatal("geometry")
	}
	m.Write32(100, 0xdeadbeef)
	if m.Read32(100) != 0xdeadbeef {
		t.Fatal("word round trip")
	}
	m.Write8(104, 0x7f)
	if m.Read8(104) != 0x7f {
		t.Fatal("byte round trip")
	}
	blob := []byte{1, 2, 3, 4, 5, 6, 7}
	m.Write(200, blob)
	if !bytes.Equal(m.Read(200, 7), blob) {
		t.Fatal("slice round trip")
	}
	dst := make([]byte, 7)
	m.ReadInto(200, dst)
	if !bytes.Equal(dst, blob) {
		t.Fatal("ReadInto")
	}
}

func TestReadIsACopy(t *testing.T) {
	m := NewMemory(1)
	m.Write32(0, 42)
	b := m.Read(0, 4)
	b[0] = 99
	if m.Read32(0) != 42 {
		t.Fatal("Read aliases memory")
	}
}

func TestZeroPage(t *testing.T) {
	m := NewMemory(2)
	m.Write32(PageSize+8, 7)
	m.ZeroPage(1)
	if m.Read32(PageSize+8) != 0 {
		t.Fatal("ZeroPage left data")
	}
	// Neighboring page untouched.
	m.Write32(8, 9)
	m.ZeroPage(1)
	if m.Read32(8) != 9 {
		t.Fatal("ZeroPage crossed page boundary")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewMemory(1)
	for _, fn := range []func(){
		func() { m.Read32(PageSize - 2) },
		func() { m.Write(PAddr(PageSize-1), []byte{1, 2}) },
		func() { m.Read(PageSize, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestCommandSpace(t *testing.T) {
	m := NewMemory(8)
	if m.CmdBase() != PAddr(8*PageSize) {
		t.Fatal("CmdBase")
	}
	if m.IsCmd(100) || !m.IsCmd(m.CmdBase()+100) {
		t.Fatal("IsCmd classification")
	}
	if m.IsCmd(PAddr(16 * PageSize)) {
		t.Fatal("beyond command space should not classify as command")
	}
	// One command page per memory page at a constant distance (§4.2).
	for p := PageNum(0); p < 8; p++ {
		c := m.CmdPageFor(p)
		if !m.IsCmd(c) {
			t.Fatalf("command page for %d not in command space", p)
		}
		if m.PageForCmd(c) != p {
			t.Fatalf("round trip page %d", p)
		}
		if m.PageForCmd(c+123) != p {
			t.Fatal("in-page command offsets must map to the same page")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("PageForCmd on a DRAM address must panic")
			}
		}()
		m.PageForCmd(50)
	}()
}

// The largest memory still reaches every command page: the command
// space above it ends at 2^32 - 2·PageSize, inside the 32-bit PAddr.
// One page more and the space wraps.
func TestLargestMemoryCommandSpace(t *testing.T) {
	m := NewMemory(MaxPages)
	last := m.CmdPageFor(MaxPages-1) + PageSize - 1
	if !m.IsCmd(m.CmdBase()) || !m.IsCmd(last) || m.PageForCmd(last) != MaxPages-1 {
		t.Fatal("command space of the largest memory not reachable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewMemory accepted a memory whose command space wraps PAddr")
		}
	}()
	NewMemory(MaxPages + 1)
}

// Reads of pages never written return zeros and build nothing: no chunk
// of frame slots and no frame, in an unbuilt chunk or beside a written
// page in a built one. ZeroPage of such a page builds nothing either.
func TestUnwrittenPagesReadZeroAndBuildNothing(t *testing.T) {
	m := NewMemory(3*chunkPages + 5)
	written := PageNum(chunkPages + 1)
	m.Write32(written.Addr(8), 7) // builds chunk 1 and one frame
	zeros := make([]byte, 2*PageSize)
	dst := make([]byte, 2*PageSize)
	for _, p := range []PageNum{0, chunkPages - 1, chunkPages, chunkPages + 2, 3*chunkPages + 4} {
		if b := m.Read(p.Addr(0), PageSize); !bytes.Equal(b, zeros[:PageSize]) {
			t.Fatalf("Read of page %d: not zeros", p)
		}
		m.ReadInto(p.Addr(100), dst[:300])
		if !bytes.Equal(dst[:300], zeros[:300]) {
			t.Fatalf("ReadInto of page %d: not zeros", p)
		}
		if v := m.Read32(p.Addr(PageSize - 4)); v != 0 {
			t.Fatalf("Read32 of page %d = %#x", p, v)
		}
		if v := m.Read8(p.Addr(5)); v != 0 {
			t.Fatalf("Read8 of page %d = %#x", p, v)
		}
		m.ZeroPage(p)
	}
	// A word and a read straddling two unwritten pages of two chunks.
	if v := m.Read32(PageNum(chunkPages - 1).Addr(PageSize - 2)); v != 0 {
		t.Fatalf("straddling Read32 = %#x", v)
	}
	m.ReadInto(PageNum(chunkPages-1).Addr(PageSize/2), dst[:PageSize])
	if !bytes.Equal(dst[:PageSize], zeros[:PageSize]) {
		t.Fatal("straddling ReadInto: not zeros")
	}
	for i, c := range m.dir {
		if built := c != &noFrames; built != (i == int(written)>>chunkShift) {
			t.Errorf("chunk %d built %v", i, built)
		}
	}
	if len(m.frames) != 1 || noFrames != (frameChunk{}) {
		t.Errorf("%d frames made, shared empty chunk zero %v", len(m.frames), noFrames == (frameChunk{}))
	}
	if m.Read32(written.Addr(8)) != 7 {
		t.Fatal("written word lost")
	}
	// A write straddling two chunks builds the one still unbuilt.
	blob := []byte{1, 2, 3, 4, 5, 6}
	m.Write(PageNum(2*chunkPages).Addr(0)-3, blob)
	if !bytes.Equal(m.Read(PageNum(2*chunkPages).Addr(0)-3, len(blob)), blob) || len(m.frames) != 3 {
		t.Fatalf("write across chunks: read back %v, %d frames made", m.Read(PageNum(2*chunkPages).Addr(0)-3, len(blob)), len(m.frames))
	}
}

// A frame holds its page up to the highest byte written, in steps of
// ×4 from minFrame, and reads as zero past that. A write at the last
// word costs the whole page. ZeroPage and Reset cut a frame to length
// zero and keep its backing array, so writing the same bytes again
// allocates nothing.
func TestFrameGrowsToHighestWrittenByte(t *testing.T) {
	m := NewMemory(2)
	frame := func(p PageNum) []byte {
		t.Helper()
		f := m.peek(p.Addr(0))
		if f == nil {
			t.Fatalf("page %d has no frame", p)
		}
		return f
	}
	steps := []struct {
		end, cap int
	}{{4, 64}, {64, 64}, {65, 256}, {1024, 1024}, {1025, 4096}, {PageSize, PageSize}}
	for i, w := range steps {
		m.Write8(PAddr(w.end-1), byte(w.end))
		if f := frame(0); len(f) != w.end || cap(f) != w.cap {
			t.Fatalf("after a write ending at %d: frame of %d bytes in %d, want %d in %d", w.end, len(f), cap(f), w.end, w.cap)
		}
		for _, old := range steps[:i] { // growing kept every byte
			if got := m.Read8(PAddr(old.end - 1)); got != byte(old.end) {
				t.Fatalf("after a write ending at %d: byte %d reads %d, want %d", w.end, old.end-1, got, byte(old.end))
			}
		}
	}
	m.Write32(PageNum(1).Addr(PageSize-4), 9) // the DoubleChannel flag
	if f := frame(1); len(f) != PageSize || cap(f) != PageSize {
		t.Fatalf("a flag in the last word built a frame of %d in %d bytes", len(f), cap(f))
	}
	m.ZeroPage(1)
	if f := frame(1); len(f) != 0 || cap(f) != PageSize || m.Read32(PageNum(1).Addr(PageSize-4)) != 0 {
		t.Fatalf("ZeroPage left a frame of %d in %d bytes", len(f), cap(f))
	}

	m.Reset()
	m.Write32(100, 7)
	if f := frame(0); len(f) != 104 || cap(f) != PageSize || m.Read32(100) != 7 || m.Read8(1023) != 0 {
		t.Fatalf("a write past a reset frame's length: frame of %d in %d bytes", len(f), cap(f))
	}
	// A word and a read that straddle the frame's end read its bytes,
	// then zeros.
	if v := m.Read32(102); v != 0 {
		t.Fatalf("Read32 across the frame's end = %#x, want 0", v)
	}
	m.Write8(104, 0xaa) // grows within capacity: 105 bytes
	if v := m.Read32(102); v != 0xaa_0000 {
		t.Fatalf("Read32 across the frame's end = %#x, want 0xaa0000", v)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		m.Write32(PageNum(0).Addr(PageSize-4), 1)
		m.Write32(PageNum(1).Addr(PageSize-4), 1)
	}); allocs != 0 {
		t.Fatalf("rewriting reset frames allocated %.0f times", allocs)
	}
}
