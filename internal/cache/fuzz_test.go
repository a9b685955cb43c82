package cache

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

// fuzzPages is the DRAM under a fuzzed cache: small enough that every
// geometry sees conflict misses and evictions.
const fuzzPages = 4

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

// addr draws an address at which n bytes fit in memory.
func (in *fuzzInput) addr(mem *phys.Memory, n int) phys.PAddr {
	return phys.PAddr((in.next() | in.next()<<8) % (int(mem.Size()) - n + 1))
}

// FuzzCacheCoherence drives a cache through a random sequence of CPU
// accesses, DMA writes, flushes and resets, against a flat shadow of
// memory. The first three input bytes pick the geometry, any that New
// accepts: 1-64 sets, 1-4 ways and 4-4,096-byte lines. The fourth holds
// one bit per page: write-through if set, else write-back. The rest are
// operations. Every load, every byte ReadBytes returns and every value
// LockedCmpxchg reads must equal the shadow, and after Flush DRAM must
// equal it too. Reset drops dirty lines by design, so the shadow then
// takes DRAM's contents.
func FuzzCacheCoherence(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := fuzzInput(raw)
		cfg := DefaultConfig()
		cfg.Sets = 1 << (in.next() % 7)
		cfg.Ways = 1 + in.next()%4
		cfg.LineBytes = 4 << (in.next() % 11)
		wtPages := in.next()
		eng := sim.NewEngine()
		mem := phys.NewMemory(fuzzPages)
		x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
		c := New(eng, cfg, x)
		shadow := make([]byte, mem.Size())
		wt := func(a phys.PAddr) bool { return wtPages>>a.Page()&1 == 1 }
		value := uint32(0x9e3779b9)
		fill := func(b []byte) []byte {
			for i := range b {
				value = value*1664525 + 1013904223
				b[i] = byte(value >> 24)
			}
			return b
		}
		sizes := [3]int{1, 2, 4}
		buf := make([]byte, phys.PageSize)
		check := func(step int, what string, a phys.PAddr, got []byte) {
			t.Helper()
			if want := shadow[a : int(a)+len(got)]; !bytes.Equal(got, want) {
				t.Fatalf("step %d: %s at %#x read %x, shadow holds %x (%+v)", step, what, uint32(a), got, want, cfg)
			}
		}
		for step := 0; len(in) > 0; step++ {
			op := in.next()
			switch op % 9 {
			case 0: // load
				size := sizes[op/9%3]
				a := in.addr(mem, size)
				v, _ := c.Load(a, size)
				check(step, "Load", a, le(buf, v, size))
			case 1: // store
				size := sizes[op/9%3]
				a := in.addr(mem, size)
				src := fill(buf[:size])
				c.Store(a, le32(src), size, wt(a))
				copy(shadow[a:], src)
			case 2: // store run, write-through pages only
				a := in.addr(mem, 4) &^ 3
				data := fill(buf[:4*(1+in.next()%64)])
				n, _ := c.StoreRun(a, data, wt(a))
				if wt(a) && n == 0 {
					t.Fatalf("step %d: StoreRun at %#x committed nothing", step, uint32(a))
				}
				copy(shadow[a:], data[:4*n])
			case 3: // read bytes
				n := 1 + in.next()%256
				a := in.addr(mem, n)
				c.ReadBytes(a, buf[:n])
				check(step, "ReadBytes", a, buf[:n])
			case 4: // locked compare-exchange, swapping or not
				a := in.addr(mem, 4) &^ 3
				expect := le32(shadow[a:])
				if op/9%2 == 1 {
					expect++
				}
				repl := le32(fill(buf[4:8]))
				read, swapped, _ := c.LockedCmpxchg(a, expect, repl)
				check(step, "LockedCmpxchg", a, le(buf, read, 4))
				if swapped != (read == expect) {
					t.Fatalf("step %d: LockedCmpxchg read %#x, expected %#x, swapped %v", step, read, expect, swapped)
				}
				if swapped {
					copy(shadow[a:], le(buf, repl, 4))
				}
			case 5: // DMA write through the snoop port
				n := 1 + in.next()%64
				a := in.addr(mem, n)
				data := fill(buf[:n])
				x.Write(bus.InitBridge, a, data)
				copy(shadow[a:], data)
			case 6: // flush a page, then maybe flip its policy
				p := phys.PageNum(in.next() % fuzzPages)
				c.FlushPage(p)
				if op/9%2 == 1 {
					wtPages ^= 1 << p
				}
			case 7:
				c.Flush()
				check(step, "DRAM after Flush", 0, mem.Read(0, int(mem.Size())))
			case 8:
				c.Reset()
				mem.ReadInto(0, shadow)
			}
		}
		c.Flush()
		check(-1, "DRAM after Flush", 0, mem.Read(0, int(mem.Size())))
	})
}

// le encodes the low size bytes of v little-endian into b.
func le(b []byte, v uint32, size int) []byte {
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b[:size]
}

// le32 decodes up to four little-endian bytes.
func le32(b []byte) uint32 {
	var v uint32
	for i := 0; i < len(b) && i < 4; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}
