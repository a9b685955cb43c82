package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

func newCache() (*sim.Engine, *bus.Xpress, *Cache) {
	eng := sim.NewEngine()
	mem := phys.NewMemory(16)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	c := New(eng, DefaultConfig(), x)
	return eng, x, c
}

func TestLoadMissThenHit(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(256, 0x12345678)
	v, missLat := c.Load(256, 4)
	if v != 0x12345678 {
		t.Fatalf("miss value %#x", v)
	}
	v, hitLat := c.Load(256, 4)
	if v != 0x12345678 {
		t.Fatalf("hit value %#x", v)
	}
	if hitLat >= missLat {
		t.Fatalf("hit %v not faster than miss %v", hitLat, missLat)
	}
	st := c.Stats()
	if st.LoadMisses != 1 || st.LoadHits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSubWordAccess(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(64, 0xddccbbaa)
	if v, _ := c.Load(64, 1); v != 0xaa {
		t.Fatalf("byte load %#x", v)
	}
	if v, _ := c.Load(65, 1); v != 0xbb {
		t.Fatalf("byte load +1 %#x", v)
	}
	if v, _ := c.Load(64, 2); v != 0xbbaa {
		t.Fatalf("half load %#x", v)
	}
	c.Store(65, 0x7e, 1, true)
	if v, _ := c.Load(64, 4); v != 0xddcc7eaa {
		t.Fatalf("after byte store %#x", v)
	}
	if x.Memory().Read32(64) != 0xddcc7eaa {
		t.Fatal("write-through byte store missed memory")
	}
}

func TestWriteThroughGoesToBus(t *testing.T) {
	_, x, c := newCache()
	before := x.Stats().Writes
	c.Store(512, 77, 4, true)
	if x.Stats().Writes != before+1 {
		t.Fatal("write-through store did not reach the bus")
	}
	if x.Memory().Read32(512) != 77 {
		t.Fatal("memory not updated")
	}
}

func TestWriteBackDefersBusWrite(t *testing.T) {
	_, x, c := newCache()
	before := x.Stats().Writes
	c.Store(512, 77, 4, false)
	if x.Stats().Writes != before {
		t.Fatal("write-back store went to the bus immediately")
	}
	if v, _ := c.Load(512, 4); v != 77 {
		t.Fatal("write-back store lost")
	}
	// Memory is stale until eviction or flush.
	if x.Memory().Read32(512) == 77 {
		t.Fatal("memory updated before write-back")
	}
	c.Flush()
	if x.Memory().Read32(512) != 77 {
		t.Fatal("flush did not write back")
	}
	if c.Stats().WriteBacks == 0 {
		t.Fatal("write-back not counted")
	}
}

func TestEvictionWritesBackDirtyVictim(t *testing.T) {
	eng := sim.NewEngine()
	mem := phys.NewMemory(64)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	cfg := DefaultConfig()
	cfg.Sets = 2 // tiny cache to force conflicts
	cfg.Ways = 1
	c := New(eng, cfg, x)

	c.Store(0, 11, 4, false) // dirty line in set 0
	// Same set, different tag: line size 32, sets 2 -> stride 64.
	c.Store(64, 22, 4, false) // evicts the first line
	if mem.Read32(0) != 11 {
		t.Fatal("dirty victim not written back")
	}
	if v, _ := c.Load(64, 4); v != 22 {
		t.Fatal("new line lost")
	}
}

func TestDMASnoopInvalidates(t *testing.T) {
	_, x, c := newCache()
	x.Memory().Write32(128, 1)
	c.Load(128, 4) // line cached
	// DMA deposit (bridge-initiated) to the same line.
	x.Write32(bus.InitBridge, 128, 99)
	if c.Stats().SnoopInvalidations == 0 {
		t.Fatal("no invalidation on DMA write")
	}
	if v, _ := c.Load(128, 4); v != 99 {
		t.Fatalf("stale value %d after DMA", v)
	}
}

func TestCPUWritesDoNotSelfInvalidate(t *testing.T) {
	_, x, c := newCache()
	c.Store(128, 5, 4, true)
	c.Load(128, 4)
	x.Write32(bus.InitCPU, 132, 6) // some other CPU-side bus write
	if c.Stats().SnoopInvalidations != 0 {
		t.Fatal("CPU write invalidated own cache")
	}
}

func TestFlushPage(t *testing.T) {
	_, x, c := newCache()
	c.Store(phys.PageNum(2).Addr(0), 1, 4, false)
	c.Store(phys.PageNum(2).Addr(64), 2, 4, false)
	c.Store(phys.PageNum(3).Addr(0), 3, 4, false)
	c.FlushPage(2)
	if x.Memory().Read32(phys.PageNum(2).Addr(0)) != 1 ||
		x.Memory().Read32(phys.PageNum(2).Addr(64)) != 2 {
		t.Fatal("page 2 not written back")
	}
	if x.Memory().Read32(phys.PageNum(3).Addr(0)) == 3 {
		t.Fatal("FlushPage touched another page")
	}
	// Page 2 lines are invalid now: a DMA write then load sees new data.
	x.Write32(bus.InitBridge, phys.PageNum(2).Addr(0), 42)
	if v, _ := c.Load(phys.PageNum(2).Addr(0), 4); v != 42 {
		t.Fatal("stale line survived FlushPage")
	}
}

func TestCommandSpaceUncacheable(t *testing.T) {
	_, x, c := newCache()
	cmd := &countingCmd{}
	x.SetCommandTarget(cmd)
	base := x.Memory().CmdBase()
	c.Load(base+4, 4)
	c.Load(base+4, 4)
	if cmd.reads != 2 {
		t.Fatalf("command reads cached: %d bus reads", cmd.reads)
	}
	c.Store(base+4, 1, 4, true)
	if cmd.writes != 1 {
		t.Fatal("command store not a bus write")
	}
}

type countingCmd struct{ reads, writes int }

func (c *countingCmd) CmdRead(a phys.PAddr) uint32          { c.reads++; return 0 }
func (c *countingCmd) CmdWrite(a phys.PAddr, v uint32) bool { c.writes++; return true }

func TestWriteBufferStallsWhenBusSaturated(t *testing.T) {
	_, _, c := newCache()
	var sawStall bool
	for i := 0; i < 100; i++ {
		lat := c.Store(phys.PAddr(i*4), uint32(i), 4, true)
		if lat > DefaultConfig().HitTime {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("no write-buffer stall under back-to-back stores")
	}
	if c.Stats().WriteBufferStall == 0 {
		t.Fatal("stall time not accounted")
	}
}

func TestCoherenceUnderRandomInterleaving(t *testing.T) {
	// Property: a load through the cache always returns the most recent
	// write, regardless of CPU store policy and interleaved DMA writes.
	eng := sim.NewEngine()
	mem := phys.NewMemory(8)
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	c := New(eng, DefaultConfig(), x)
	rng := rand.New(rand.NewSource(3))
	shadow := make(map[phys.PAddr]uint32)

	for i := 0; i < 5000; i++ {
		a := phys.PAddr(rng.Intn(8*phys.PageSize/4)) * 4
		switch rng.Intn(4) {
		case 0: // write-through store
			v := rng.Uint32()
			c.Store(a, v, 4, true)
			shadow[a] = v
		case 1: // write-back store
			v := rng.Uint32()
			c.Store(a, v, 4, false)
			shadow[a] = v
		case 2: // DMA write (must invalidate)
			v := rng.Uint32()
			x.Write32(bus.InitBridge, a, v)
			shadow[a] = v
		case 3: // load and check
			want, ok := shadow[a]
			if !ok {
				continue
			}
			if got, _ := c.Load(a, 4); got != want {
				t.Fatalf("step %d: load %#x = %#x, want %#x", i, uint32(a), got, want)
			}
		}
	}
	// Final sweep: every address readable and correct.
	for a, want := range shadow {
		if got, _ := c.Load(a, 4); got != want {
			t.Fatalf("final: %#x = %#x, want %#x", uint32(a), got, want)
		}
	}
}

// twinCache is a cache together with everything it touches, so two of
// them can be driven through the same history and compared field by
// field.
type twinCache struct {
	x   *bus.Xpress
	c   *Cache
	cmd *countingCmd
}

func newTwinCache() *twinCache {
	eng := sim.NewEngine()
	mem := phys.NewMemory(64)
	for i := uint32(0); i < mem.Size(); i += 4 {
		mem.Write32(phys.PAddr(i), i*2654435761)
	}
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), mem)
	cmd := &countingCmd{}
	x.SetCommandTarget(cmd)
	return &twinCache{x: x, c: New(eng, DefaultConfig(), x), cmd: cmd}
}

// loadBytes is the per-byte reference ReadBytes must match: one
// one-byte Load per byte, in address order.
func loadBytes(c *Cache, a phys.PAddr, out []byte) {
	for i := range out {
		v, _ := c.Load(a+phys.PAddr(i), 1)
		out[i] = byte(v)
	}
}

// sameState fails unless the two caches are indistinguishable: bytes
// read, statistics, LRU clock, every line's tag, state, age and data,
// and the bus and command-space traffic they caused.
func sameState(t *testing.T, what string, a, b *twinCache) {
	t.Helper()
	if a.c.Stats() != b.c.Stats() {
		t.Fatalf("%s: cache stats\nReadBytes: %+v\nper byte:  %+v", what, a.c.Stats(), b.c.Stats())
	}
	if a.x.Stats() != b.x.Stats() {
		t.Fatalf("%s: bus stats\nReadBytes: %+v\nper byte:  %+v", what, a.x.Stats(), b.x.Stats())
	}
	if *a.cmd != *b.cmd {
		t.Fatalf("%s: command traffic %+v vs %+v", what, *a.cmd, *b.cmd)
	}
	if a.c.clock != b.c.clock {
		t.Fatalf("%s: clock %d vs %d", what, a.c.clock, b.c.clock)
	}
	la, _ := a.c.Lines()
	lb, _ := b.c.Lines()
	for i := range la {
		if !reflect.DeepEqual(la[i], lb[i]) {
			t.Fatalf("%s: line %d differs: %+v vs %+v", what, i, la[i], lb[i])
		}
	}
	if !bytes.Equal(a.x.Memory().Read(0, int(a.x.Memory().Size())), b.x.Memory().Read(0, int(b.x.Memory().Size()))) {
		t.Fatalf("%s: memory differs", what)
	}
}

// ReadBytes must have exactly the effect of one-byte Loads in address
// order: the same bytes, statistics, LRU ages (and so the same victim on
// a later conflicting miss), write-backs and bus traffic.
func TestReadBytesMatchesPerByteLoads(t *testing.T) {
	const way = 256 * 32 // DefaultConfig: addresses this far apart share a set
	cases := []struct {
		name string
		prep func(c *Cache)
		a    phys.PAddr // offset from CmdBase when cmd is set
		n    int
		cmd  bool
		wb   uint64 // write-backs the read must cause
	}{
		{name: "unaligned multi-line", a: 0x105, n: 150},
		{name: "within one line", a: 0x203, n: 9},
		{name: "hits then misses", prep: func(c *Cache) { c.Load(0x340, 4); c.Load(0x360, 4) }, a: 0x33c, n: 80},
		{name: "miss writes back a dirty victim", prep: func(c *Cache) {
			c.Store(0x400, 0xdeadbeef, 4, false) // dirty, write-back
			c.Store(0x400+way, 7, 4, false)      // fills the set's other way
			c.Load(0x400+way, 4)                 // 0x400's way is now LRU
		}, a: 0x400 + 2*way + 3, n: 64, wb: 1},
		{name: "command space", a: 6, n: 12, cmd: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newTwinCache(), newTwinCache()
			addr := tc.a
			if tc.cmd {
				addr += a.x.Memory().CmdBase()
			}
			if tc.prep != nil {
				tc.prep(a.c)
				tc.prep(b.c)
			}
			got, want := make([]byte, tc.n), make([]byte, tc.n)
			a.c.ReadBytes(addr, got)
			loadBytes(b.c, addr, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("bytes\nReadBytes: %x\nper byte:  %x", got, want)
			}
			sameState(t, "after read", a, b)
			if wb := a.c.Stats().WriteBacks; wb != tc.wb {
				t.Fatalf("read caused %d write-backs, want %d", wb, tc.wb)
			}
			if tc.cmd && a.cmd.reads != tc.n {
				t.Fatalf("%d command-space bus reads for %d bytes", a.cmd.reads, tc.n)
			}
			// A later conflicting miss in the first line's set must pick
			// the same victim on both sides.
			conflict := addr&^31 + 3*way
			a.c.Load(conflict, 4)
			b.c.Load(conflict, 4)
			sameState(t, "after conflicting miss", a, b)
		})
	}
}

// StoreRun must have exactly the effect of one write-through Store per
// word, each issued when the one before it completes, and stop at the
// last word that completes at or after the next pending event. With
// the cache's own snoop port the only one on the bus, only the clock
// bounds the run: it starts on two warm lines (hits) among cold ones
// (misses) and runs into write-buffer stalls before the event cuts it.
func TestStoreRunMatchesStores(t *testing.T) {
	const a0, event = 0x104, sim.Microsecond
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	run, ref := newTwinCache(), newTwinCache()
	for _, tc := range []*twinCache{run, ref} {
		tc.c.Load(0x120, 4)
		tc.c.Load(0x160, 4)
		tc.c.eng.At(event, func() {})
	}
	if n, _ := run.c.StoreRun(a0, data, false); n != 0 {
		t.Fatalf("write-back run stored %d words", n)
	}
	if n, _ := run.c.StoreRun(a0+2, data, true); n != 0 {
		t.Fatalf("unaligned run stored %d words", n)
	}
	n, lat := run.c.StoreRun(a0, data, true)
	if n < 2 || n >= len(data)/4 {
		t.Fatalf("run stored %d of %d words", n, len(data)/4)
	}
	if run.c.eng.Now()+lat < event {
		t.Fatalf("run stopped at %v + %v, before the event at %v", run.c.eng.Now(), lat, event)
	}
	var want sim.Time
	for i := 0; i < n; i++ {
		if i > 0 {
			ref.c.eng.AdvanceTo(ref.c.eng.Now() + want)
		}
		want = ref.c.Store(a0+phys.PAddr(4*i), binary.LittleEndian.Uint32(data[4*i:]), 4, true)
	}
	if run.c.eng.Now() != ref.c.eng.Now() || lat != want {
		t.Fatalf("run ends at %v with latency %v; per-word stores at %v with %v",
			run.c.eng.Now(), lat, ref.c.eng.Now(), want)
	}
	if run.c.Stats().WriteBufferStall == 0 {
		t.Fatal("the run never stalled on the write buffer")
	}
	sameState(t, "after the run", run, ref)
}

// newGeometry builds a cache of the given shape over 16 pages of DRAM.
func newGeometry(sets, ways, lineBytes int) (*bus.Xpress, *Cache) {
	eng := sim.NewEngine()
	x := bus.NewXpress(eng, bus.DefaultXpressConfig(), phys.NewMemory(16))
	cfg := DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.LineBytes = sets, ways, lineBytes
	return x, New(eng, cfg, x)
}

// New accepts lines of 4 bytes to one page. Below 4, a word splits over
// more than two lines; above a page, a line spans pages and FlushPage
// misses it.
func TestLineSizeBounds(t *testing.T) {
	for _, lb := range []int{1, 2, 2 * phys.PageSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %d-byte lines", lb)
				}
			}()
			newGeometry(4, 2, lb)
		}()
	}

	// 4-byte lines: every unaligned word spans two lines.
	x, c := newGeometry(4, 2, 4)
	x.Memory().Write32(64, 0xddccbbaa)
	x.Memory().Write32(68, 0x44332211)
	if v, _ := c.Load(64, 4); v != 0xddccbbaa {
		t.Fatalf("aligned load %#x", v)
	}
	if v, _ := c.Load(66, 4); v != 0x2211ddcc {
		t.Fatalf("split load %#x", v)
	}
	c.Store(67, 0x55667788, 4, false)
	if v, _ := c.Load(66, 4); v != 0x667788cc {
		t.Fatalf("load after split write-back store %#x", v)
	}
	c.Flush()
	if lo, hi := x.Memory().Read32(64), x.Memory().Read32(68); lo != 0x88ccbbaa || hi != 0x44556677 {
		t.Fatalf("memory after flush %#x %#x", lo, hi)
	}

	// Page-sized lines: FlushPage writes back and invalidates the
	// page's one line, and no other.
	x, c = newGeometry(4, 1, phys.PageSize)
	c.Store(phys.PageNum(1).Addr(8), 7, 4, false)
	c.Store(phys.PageNum(2).Addr(8), 9, 4, false)
	c.FlushPage(1)
	if v := x.Memory().Read32(phys.PageNum(1).Addr(8)); v != 7 {
		t.Fatalf("FlushPage(1) left memory at %d", v)
	}
	if v := x.Memory().Read32(phys.PageNum(2).Addr(8)); v != 0 {
		t.Fatal("FlushPage(1) wrote back page 2")
	}
	x.Write32(bus.InitBridge, phys.PageNum(1).Addr(8), 42)
	if v, _ := c.Load(phys.PageNum(1).Addr(8), 4); v != 42 {
		t.Fatalf("stale line survived FlushPage: %d", v)
	}
}

// A cache builds its line storage on the first fill. Until then it holds
// none, yet reports the lines a filled-then-Reset cache does; after a
// Reset it keeps the storage and refills without allocating.
func TestLineStorageBuiltOnFirstFill(t *testing.T) {
	_, x, fresh := newCache()
	if fresh.lines != nil || fresh.data != nil {
		t.Fatalf("a new cache holds %d line states and %d bytes of line data", len(fresh.lines), len(fresh.data))
	}
	// Write-through misses and locked RMWs do not allocate.
	fresh.Store(0x300, 1, 4, true)
	fresh.StoreRun(0x400, make([]byte, 64), true)
	fresh.LockedCmpxchg(0x300, 1, 2)
	fresh.FlushPage(0)
	fresh.Flush()
	fresh.Reset()
	x.Write32(bus.InitBridge, 0x300, 2)
	if fresh.lines != nil || fresh.data != nil {
		t.Fatal("accesses that fill no line built line storage")
	}

	_, _, used := newCache()
	used.Load(0x100, 4)
	used.Store(0x2100, 3, 4, false)
	used.Reset()
	if used.lines == nil || used.data == nil {
		t.Fatal("Reset dropped the line storage")
	}
	freshLines, freshClock := fresh.Lines()
	usedLines, usedClock := used.Lines()
	if freshClock != usedClock {
		t.Fatalf("clock %d, after Reset %d", freshClock, usedClock)
	}
	for i, l := range freshLines {
		u := usedLines[i]
		if l.Valid != u.Valid || l.Dirty != u.Dirty || l.Tag != u.Tag || l.Age != u.Age {
			t.Fatalf("line %d: never filled %+v, after Reset %+v", i, l, u)
		}
		if len(l.Data) != DefaultConfig().LineBytes || !bytes.Equal(l.Data, make([]byte, len(l.Data))) {
			t.Fatalf("line %d of a cache never filled reports data %x", i, l.Data)
		}
	}

	if n := testing.AllocsPerRun(10, func() {
		used.Reset()
		used.Load(0x100, 4)
		used.Store(0x2100, 3, 4, false)
	}); n != 0 {
		t.Fatalf("a refill after Reset allocated %v times", n)
	}
}
