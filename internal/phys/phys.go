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

// Memory is the DRAM of a single node. Page frames are materialized
// lazily: a nil frame reads as zeros and is allocated on first write, so
// building a machine with many nodes does not pay for zeroing DRAM that
// the workload never touches. So are the frame slots: a directory holds
// them in chunks of chunkPages pages, each built on the first write to
// one of its pages, so memory never written costs one directory word
// per chunkPages pages.
type Memory struct {
	// dir holds one chunk of frame slots per chunkPages pages: &noFrames
	// until a page of the chunk is written.
	dir []*frameChunk
	// made lists the materialized frames, so Reset clears only those.
	// Frames are never dropped, so the list stays valid.
	made []*[PageSize]byte
	size uint32
}

// The directory builds the frame slots of chunkPages consecutive pages
// at once, on the first write to any of them.
const (
	chunkShift = 6
	chunkPages = 1 << chunkShift
)

// frameChunk holds the frame slots of chunkPages consecutive pages.
type frameChunk [chunkPages]*[PageSize]byte

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

// peek returns the frame of the page containing a, nil when the page
// was never written. It builds nothing.
func (m *Memory) peek(a PAddr) *[PageSize]byte {
	p := a >> PageShift
	return m.dir[p>>chunkShift][p%chunkPages]
}

// frame returns the frame of the page containing a, allocating it (and
// its chunk of slots) on first use.
func (m *Memory) frame(a PAddr) *[PageSize]byte {
	p := a >> PageShift
	c := m.dir[p>>chunkShift]
	if c == &noFrames {
		c = new(frameChunk)
		m.dir[p>>chunkShift] = c
	}
	f := c[p%chunkPages]
	if f == nil {
		f = new([PageSize]byte)
		c[p%chunkPages] = f
		m.made = append(m.made, f)
	}
	return f
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
		n := PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if f := m.peek(a); f != nil {
			copy(dst[:n], f[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		a += PAddr(n)
	}
}

// Write copies b into memory at a.
func (m *Memory) Write(a PAddr, b []byte) {
	m.check(a, len(b))
	for len(b) > 0 {
		off := int(a.Offset())
		n := PageSize - off
		if n > len(b) {
			n = len(b)
		}
		copy(m.frame(a)[off:], b[:n])
		b = b[n:]
		a += PAddr(n)
	}
}

// Read32 reads a little-endian 32-bit word at a.
func (m *Memory) Read32(a PAddr) uint32 {
	m.check(a, 4)
	if off := a.Offset(); off <= PageSize-4 {
		f := m.peek(a)
		if f == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(f[off:])
	}
	var b [4]byte
	m.ReadInto(a, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// Write32 writes a little-endian 32-bit word at a.
func (m *Memory) Write32(a PAddr, v uint32) {
	m.check(a, 4)
	if off := a.Offset(); off <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.frame(a)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.Write(a, b[:])
}

// Read8 reads the byte at a.
func (m *Memory) Read8(a PAddr) byte {
	m.check(a, 1)
	f := m.peek(a)
	if f == nil {
		return 0
	}
	return f[a.Offset()]
}

// Write8 writes the byte at a.
func (m *Memory) Write8(a PAddr, v byte) {
	m.check(a, 1)
	m.frame(a)[a.Offset()] = v
}

// Reset zeroes all of memory, returning it to its just-built state.
// Frames that were materialized are cleared in place rather than
// dropped: a reset machine is about to run another workload that will
// likely touch the same pages, so reusing the backing arrays avoids
// re-paying the allocation. A cleared frame is observationally identical
// to a nil one (both read as zeros). Reset costs the frames ever written,
// not the size of memory.
func (m *Memory) Reset() {
	for _, f := range m.made {
		clear(f[:])
	}
}

// ZeroPage clears page p. A frame that was never materialized stays
// nil (reads as zeros), so boot remains lazy; a materialized frame is
// cleared in place so that the common caller — the kernel recycling a
// frame — reuses the backing array instead of re-allocating it on the
// next write.
func (m *Memory) ZeroPage(p PageNum) {
	a := p.Addr(0)
	m.check(a, PageSize)
	if f := m.peek(a); f != nil {
		clear(f[:])
	}
}
