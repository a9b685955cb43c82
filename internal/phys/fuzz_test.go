package phys

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzPages is the fuzzed memory's size: one whole chunk of frame slots
// and part of a second, so accesses cross chunk boundaries.
const fuzzPages = chunkPages + 3

// fuzzSteps bounds the operations one input runs: each is followed by a
// check of all of memory.
const fuzzSteps = 64

// fuzzInput hands out the fuzzer's bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// addr draws an address at which n bytes fit in memory. Its offset is
// shifted down by 0-7 bits, so small frames, and offsets near a frame's
// steps, come up as often as whole pages.
func (in *fuzzInput) addr(n int) PAddr {
	p := in.next() % fuzzPages
	off := (in.next() | in.next()<<8) % PageSize >> (in.next() % 8)
	a := p*PageSize + off
	if a+n > fuzzPages*PageSize {
		a = fuzzPages*PageSize - n
	}
	return PAddr(a)
}

// length draws a byte count of up to two pages, mostly short.
func (in *fuzzInput) length() int { return in.next() << (in.next() % 6) % (2 * PageSize) }

// FuzzMemoryMatchesFlat drives Memory and a flat byte array through the
// same random sequence of Write, Write32, Write8, Read, ReadInto,
// Read32, Read8, ZeroPage and Reset, accesses straddling pages and
// chunks included. After every operation all of memory must read the
// same on both; every frame must be exactly as long as its page's
// highest byte written since the page was last zeroed, with a capacity
// on the ×4 steps and zeros past its end; reads must build no chunk and
// no frame; and the shared empty chunk must still be empty.
func FuzzMemoryMatchesFlat(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzInput(raw)
		m := NewMemory(fuzzPages)
		flat := make([]byte, fuzzPages*PageSize)
		// high[p] is the end of the highest byte written to page p
		// since it was last zeroed: the length its frame must have.
		high := make([]int, fuzzPages)
		wrote := func(a PAddr, n int) {
			for n > 0 {
				off := int(a.Offset())
				k := min(PageSize-off, n)
				high[a.Page()] = max(high[a.Page()], off+k)
				a, n = a+PAddr(k), n-k
			}
		}
		dst := make([]byte, 2*PageSize)

		for step := 0; len(in) > 0 && step < fuzzSteps; step++ {
			var what string
			built, frames := 0, len(m.frames)
			for _, c := range m.dir {
				if c != &noFrames {
					built++
				}
			}
			read := true
			switch op := in.next(); op % 9 {
			case 0:
				what = "Write"
				n := in.length()
				a := in.addr(n)
				b := make([]byte, n)
				for i := range b {
					b[i] = byte(in.next())
				}
				m.Write(a, b)
				copy(flat[a:], b)
				wrote(a, n)
				read = false
			case 1:
				what = "Write32"
				a, v := in.addr(4), uint32(in.next()|in.next()<<8|in.next()<<16|in.next()<<24)
				m.Write32(a, v)
				binary.LittleEndian.PutUint32(flat[a:], v)
				wrote(a, 4)
				read = false
			case 2:
				what = "Write8"
				a, v := in.addr(1), byte(in.next())
				m.Write8(a, v)
				flat[a] = v
				wrote(a, 1)
				read = false
			case 3:
				what = "Read"
				n := in.length()
				a := in.addr(n)
				if got := m.Read(a, n); !bytes.Equal(got, flat[a:int(a)+n]) {
					t.Fatalf("step %d: Read(%#x, %d) differs from the flat memory", step, uint32(a), n)
				}
			case 4:
				what = "ReadInto"
				n := in.length()
				a := in.addr(n)
				for i := range dst {
					dst[i] = 0xee // stale bytes ReadInto must overwrite
				}
				m.ReadInto(a, dst[:n])
				if !bytes.Equal(dst[:n], flat[a:int(a)+n]) {
					t.Fatalf("step %d: ReadInto(%#x, %d) differs from the flat memory", step, uint32(a), n)
				}
			case 5:
				what = "Read32"
				a := in.addr(4)
				if got, want := m.Read32(a), binary.LittleEndian.Uint32(flat[a:]); got != want {
					t.Fatalf("step %d: Read32(%#x) = %#x, flat %#x", step, uint32(a), got, want)
				}
			case 6:
				what = "Read8"
				a := in.addr(1)
				if got, want := m.Read8(a), flat[a]; got != want {
					t.Fatalf("step %d: Read8(%#x) = %#x, flat %#x", step, uint32(a), got, want)
				}
			case 7:
				what = "ZeroPage"
				p := PageNum(in.next() % fuzzPages)
				m.ZeroPage(p)
				clear(flat[p.Addr(0):][:PageSize])
				high[p] = 0
				read = false
			case 8:
				what = "Reset"
				m.Reset()
				clear(flat)
				clear(high)
				read = false
			}

			if noFrames != (frameChunk{}) {
				t.Fatalf("step %d (%s): the shared empty chunk was written", step, what)
			}
			if read {
				n := 0
				for _, c := range m.dir {
					if c != &noFrames {
						n++
					}
				}
				if n != built || len(m.frames) != frames {
					t.Fatalf("step %d (%s): a read built %d chunks and %d frames", step, what, n-built, len(m.frames)-frames)
				}
			}
			for p := PageNum(0); p < fuzzPages; p++ {
				page := flat[p.Addr(0):][:PageSize]
				if got := m.Read(p.Addr(0), PageSize); !bytes.Equal(got, page) {
					t.Fatalf("step %d (%s): page %d differs from the flat memory", step, what, p)
				}
				f := m.peek(p.Addr(0))
				if len(f) != high[p] {
					t.Fatalf("step %d (%s): page %d has a frame of %d bytes, highest byte written %d", step, what, p, len(f), high[p])
				}
				if f == nil {
					continue
				}
				if c := cap(f); c != minFrame && c != 4*minFrame && c != 16*minFrame && c != PageSize {
					t.Fatalf("step %d (%s): page %d has a frame capacity of %d bytes", step, what, p, c)
				}
				if slices.ContainsFunc(f[len(f):cap(f)], func(b byte) bool { return b != 0 }) {
					t.Fatalf("step %d (%s): page %d holds nonzero bytes past its frame's end", step, what, p)
				}
			}
		}
	})
}
