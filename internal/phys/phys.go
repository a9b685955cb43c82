// Package phys models a node's physical memory: a flat array of page
// frames addressed by physical byte address, plus the command address
// space "above" it that belongs to the network interface (see §4.2 of the
// paper). Memory itself is passive; timing belongs to the bus models.
package phys

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the page size used throughout the system, matching the
// i486/Pentium 4 KB page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// MaxPages is the largest memory a node can have: its command space,
// [size, 2·size), must fit below 2^32 in a 32-bit PAddr too.
const MaxPages = 1<<(31-PageShift) - 1

// PAddr is a physical byte address on one node. Addresses below the
// memory size address DRAM; addresses in [CmdBase, CmdBase+size) address
// the NIC command space and never touch RAM.
type PAddr uint32

// PageNum is a physical page frame number.
type PageNum uint32

// Page returns the page frame containing a.
func (a PAddr) Page() PageNum { return PageNum(a >> PageShift) }

// Offset returns the byte offset of a within its page.
func (a PAddr) Offset() uint32 { return uint32(a) & (PageSize - 1) }

// Addr returns the physical address of byte off within page p.
func (p PageNum) Addr(off uint32) PAddr { return PAddr(uint32(p)<<PageShift | off&(PageSize-1)) }

// Memory is the DRAM of a single node. It costs what a run writes:
//   - a directory holds the frame slots of chunkPages pages per chunk,
//     and builds a chunk on the first write to one of its pages, so
//     memory never written costs one directory word per chunkPages pages;
//   - a page's frame is built on its first write and holds the page only
//     up to its highest written byte, growing in steps of ×4 from
//     minFrame bytes to PageSize as writes reach further into the page.
//
// Bytes past a frame's end, and every byte of a page never written, read
// as zero.
type Memory struct {
	// dir holds one chunk of frame slots per chunkPages pages: &noFrames
	// until a page of the chunk is written. A slot holds 0 for a page
	// never written, else 1 + the index of the page's frame in frames.
	dir []*frameChunk
	// frames holds every frame built, in the order built. Each frame's
	// bytes from its length to its capacity are zero, so it grows within
	// its capacity without clearing. Frames are never dropped, so slots
	// stay valid, and Reset clears only these.
	frames [][]byte
	size   uint32
}

// The directory builds the frame slots of chunkPages consecutive pages
// at once, on the first write to any of them.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// minFrame is the capacity of a frame when first built; it grows ×4 at
// a time (64, 256, 1,024, 4,096 bytes) to hold the highest byte written.
const minFrame = 64

// frameChunk holds the frame slots of chunkPages consecutive pages.
type frameChunk [chunkPages]uint32

// noFrames stands in for every chunk of pages never written. Readers
// index it like a built chunk and find no frames; writers build a chunk
// of their own first, so it stays empty.
var noFrames frameChunk

// NewMemory allocates DRAM with the given number of page frames.
func NewMemory(pages int) *Memory {
	if pages <= 0 || pages > MaxPages {
		panic(fmt.Sprintf("phys: memory of %d pages outside [1,%d]", pages, MaxPages))
	}
	dir := make([]*frameChunk, (pages+chunkPages-1)>>chunkShift)
	for i := range dir {
		dir[i] = &noFrames
	}
	return &Memory{dir: dir, size: uint32(pages) * PageSize}
}

// Pages returns the number of page frames.
func (m *Memory) Pages() int { return int(m.size >> PageShift) }

// Size returns the DRAM size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// CmdBase returns the base physical address of the NIC command space:
// the paper assigns one command page per physical page, at a fixed
// distance equal to the memory size.
func (m *Memory) CmdBase() PAddr { return PAddr(m.Size()) }

// IsCmd reports whether a falls in the command address space.
func (m *Memory) IsCmd(a PAddr) bool { return uint32(a) >= m.Size() && uint32(a) < 2*m.Size() }

// CmdPageFor returns the physical address of the command page controlling
// DRAM page p.
func (m *Memory) CmdPageFor(p PageNum) PAddr { return m.CmdBase() + PAddr(uint32(p)<<PageShift) }

// PageForCmd returns the DRAM page controlled by command address a.
func (m *Memory) PageForCmd(a PAddr) PageNum {
	if !m.IsCmd(a) {
		panic(fmt.Sprintf("phys: %#x is not a command address", uint32(a)))
	}
	return PAddr(uint32(a) - m.Size()).Page()
}

func (m *Memory) check(a PAddr, n int) {
	if uint64(a)+uint64(n) > uint64(m.size) {
		panic(fmt.Sprintf("phys: access [%#x,%#x) beyond %#x", uint32(a), uint64(a)+uint64(n), m.size))
	}
}

// peek returns the frame of the page containing a: nil when the page
// was never written. It builds nothing.
func (m *Memory) peek(a PAddr) []byte {
	p := a >> PageShift
	if s := m.dir[p>>chunkShift][p%chunkPages]; s != 0 {
		return m.frames[s-1]
	}
	return nil
}

// frame returns the frame of the page containing a, at least end bytes
// long, building its chunk of slots and the frame on first use and
// growing the frame when end lies past it.
func (m *Memory) frame(a PAddr, end int) []byte {
	p := a >> PageShift
	c := m.dir[p>>chunkShift]
	if c == &noFrames {
		c = new(frameChunk)
		m.dir[p>>chunkShift] = c
	}
	s := &c[p%chunkPages]
	if *s == 0 {
		m.frames = append(m.frames, nil)
		*s = uint32(len(m.frames))
	}
	f := &m.frames[*s-1]
	if end > len(*f) {
		*f = grow(*f, end)
	}
	return *f
}

// grow returns f extended to end bytes. Within f's capacity the added
// bytes are zero already; past it, the frame moves to the smallest step
// that holds end.
func grow(f []byte, end int) []byte {
	if end <= cap(f) {
		return f[:end]
	}
	c := minFrame
	for c < end {
		c *= 4
	}
	g := make([]byte, end, c)
	copy(g, f)
	return g
}

// truncate clears frame i and cuts it to length zero, keeping its
// backing array for the next writes to the page.
func (m *Memory) truncate(i int) {
	clear(m.frames[i])
	m.frames[i] = m.frames[i][:0]
}

// Read copies n bytes starting at a into a fresh slice.
func (m *Memory) Read(a PAddr, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(a, out)
	return out
}

// ReadInto copies len(dst) bytes starting at a into dst.
func (m *Memory) ReadInto(a PAddr, dst []byte) {
	m.check(a, len(dst))
	for len(dst) > 0 {
		off := int(a.Offset())
		n := min(PageSize-off, len(dst))
		k := 0
		if f := m.peek(a); off < len(f) {
			k = copy(dst[:n], f[off:])
		}
		clear(dst[k:n])
		dst = dst[n:]
		a += PAddr(n)
	}
}

// Write copies b into memory at a.
func (m *Memory) Write(a PAddr, b []byte) {
	m.check(a, len(b))
	for len(b) > 0 {
		off := int(a.Offset())
		n := min(PageSize-off, len(b))
		copy(m.frame(a, off+n)[off:], b[:n])
		b = b[n:]
		a += PAddr(n)
	}
}

// Read32 reads a little-endian 32-bit word at a.
func (m *Memory) Read32(a PAddr) uint32 {
	m.check(a, 4)
	off := int(a.Offset())
	f := m.peek(a)
	switch {
	case off+4 <= len(f):
		return binary.LittleEndian.Uint32(f[off:])
	case off >= len(f) && off <= PageSize-4:
		return 0
	}
	var b [4]byte
	m.ReadInto(a, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian 32-bit word at a.
func (m *Memory) Write32(a PAddr, v uint32) {
	m.check(a, 4)
	if off := int(a.Offset()); off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.frame(a, off+4)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(a, b[:])
}

// Read8 reads the byte at a.
func (m *Memory) Read8(a PAddr) byte {
	m.check(a, 1)
	if f, off := m.peek(a), int(a.Offset()); off < len(f) {
		return f[off]
	}
	return 0
}

// Write8 writes the byte at a.
func (m *Memory) Write8(a PAddr, v byte) {
	m.check(a, 1)
	off := int(a.Offset())
	m.frame(a, off+1)[off] = v
}

// Reset zeroes all of memory, returning it to its just-built state.
// Built frames are cleared and cut to length zero rather than dropped:
// a reset machine is about to run another workload that will likely
// write the same pages, so keeping the backing arrays avoids re-paying
// the allocation, and an empty frame reads as zeros like a page never
// written. Reset costs the frames ever built and the bytes written
// since the last reset, not the size of memory.
func (m *Memory) Reset() {
	for i := range m.frames {
		m.truncate(i)
	}
}

// ZeroPage clears page p. A page never written stays without a frame
// (reads as zeros), so boot remains lazy; a built frame is cleared and
// cut to length zero, so that the common caller — the kernel recycling
// a frame — reuses the backing array instead of re-allocating it on the
// next write.
func (m *Memory) ZeroPage(p PageNum) {
	m.check(p.Addr(0), PageSize)
	if s := m.dir[p>>chunkShift][p%chunkPages]; s != 0 {
		m.truncate(int(s - 1))
	}
}
