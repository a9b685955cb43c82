// Package cache models a node CPU's cache in the way the SHRIMP design
// depends on it (paper §3):
//
//   - memory can be cached write-through or write-back on a per-page
//     basis, as specified in process page tables — the kernel configures
//     mapped-out automatic-update pages as write-through so that every
//     store appears on the Xpress bus where the NIC snoops it;
//   - the cache snoops DMA transactions and invalidates the corresponding
//     lines, so incoming network data deposited by DMA stays coherent
//     with what the CPU reads;
//   - write-through stores complete into a write buffer, so the CPU
//     "suffers only the local write-through cache latency" while the bus
//     transaction drains behind it.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bus"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Config holds the cache geometry and timing.
type Config struct {
	Sets      int      // number of sets (power of two)
	Ways      int      // associativity
	LineBytes int      // line size (power of two, 4 to phys.PageSize)
	HitTime   sim.Time // CPU-visible latency of a hit / buffered store
	// WriteBufferWindow bounds how far the posted-write stream may run
	// ahead of the bus; beyond it the CPU stalls until the bus drains.
	WriteBufferWindow sim.Time
}

// DefaultConfig returns a 16 KB 2-way cache with 32-byte lines, a 15 ns
// hit time (one 66 MHz CPU cycle) and an 8-write-deep buffer window.
func DefaultConfig() Config {
	return Config{
		Sets:              256,
		Ways:              2,
		LineBytes:         32,
		HitTime:           15 * sim.Nanosecond,
		WriteBufferWindow: 8 * 90 * sim.Nanosecond,
	}
}

// Stats aggregates cache activity.
type Stats struct {
	LoadHits, LoadMisses   uint64
	StoreHits, StoreMisses uint64
	SnoopInvalidations     uint64
	WriteBacks             uint64
	WriteBufferStall       sim.Time
}

// line is one cache line's state, 16 bytes. Its data lives apart, in
// Cache.data.
type line struct {
	lru   uint64
	tag   uint32
	valid bool
	dirty bool
}

// Cache is one CPU's cache attached to an Xpress bus. It registers
// itself as a bus snooper for DMA invalidations.
//
// Line i is way i%Ways of set i/Ways. Its state is lines[i] and its data
// is data[i*LineBytes:][:LineBytes]. Both are built on the first fill, so
// a cache that never fills costs nothing: most nodes of a sweep point
// never run a load.
type Cache struct {
	eng   *sim.Engine
	cfg   Config
	xbus  *bus.Xpress
	lines []line // nil until the first fill, like data
	data  []byte
	clock uint64
	stats Stats

	lineMask uint32
	setMask  uint32
	setShift uint32 // log2(LineBytes): address bits below the set index
	tagShift uint32 // setShift + log2(Sets): address bits below the tag
	scratch  [4]byte
}

// New builds a cache over the given bus and registers its snoop port.
func New(eng *sim.Engine, cfg Config, xbus *bus.Xpress) *Cache {
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: sets and line size must be powers of two")
	}
	// A line holds any aligned word, so an access splits over at most
	// two lines, and lies within one page, so FlushPage finds it.
	if cfg.LineBytes < 4 || cfg.LineBytes > phys.PageSize {
		panic(fmt.Sprintf("cache: line size %d outside [4,%d]", cfg.LineBytes, phys.PageSize))
	}
	c := &Cache{eng: eng, cfg: cfg, xbus: xbus}
	c.lineMask = uint32(cfg.LineBytes - 1)
	c.setShift = uint32(bits.TrailingZeros32(uint32(cfg.LineBytes)))
	c.tagShift = c.setShift + uint32(bits.TrailingZeros32(uint32(cfg.Sets)))
	c.setMask = uint32(cfg.Sets - 1)
	xbus.AddSnooper(snoopPort{c})
	return c
}

// Stats returns a snapshot of cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Line is a copy of one cache line's state.
type Line struct {
	Valid, Dirty bool
	Tag          uint32
	Age          uint64 // LRU stamp
	Data         []byte
}

// Lines returns a copy of every line, set by set and way by way, and the
// LRU clock. Differential tests compare two caches through it. A cache
// that has never filled reports zero data.
func (c *Cache) Lines() ([]Line, uint64) {
	out := make([]Line, c.cfg.Sets*c.cfg.Ways)
	for i := range out {
		var l line
		data := make([]byte, c.cfg.LineBytes)
		if c.lines != nil {
			l = c.lines[i]
			copy(data, c.lineData(i))
		}
		out[i] = Line{l.valid, l.dirty, l.tag, l.lru, data}
	}
	return out, c.clock
}

// Reset invalidates every line and zeroes the LRU clock and statistics,
// returning the cache to its just-built state. Line data storage, if
// built, is retained (an invalid line's contents are unobservable), so
// a reset cache allocates nothing.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
}

func (c *Cache) decompose(a phys.PAddr) (set, tag, off uint32) {
	u := uint32(a)
	return (u >> c.setShift) & c.setMask, u >> c.tagShift, u & c.lineMask
}

// lineData returns line i's data; the storage must exist.
func (c *Cache) lineData(i int) []byte {
	return c.data[i<<c.setShift:][:c.cfg.LineBytes]
}

// lookup returns the index of the valid line holding a, stamping it most
// recently used, or -1 on a miss.
func (c *Cache) lookup(a phys.PAddr) int {
	if c.lines == nil {
		return -1
	}
	set, tag, _ := c.decompose(a)
	base := int(set) * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	for i := range ways {
		if l := &ways[i]; l.valid && l.tag == tag {
			c.clock++
			l.lru = c.clock
			return base + i
		}
	}
	return -1
}

// victim picks the LRU way of set, writing it back if dirty, and returns
// its index. The first call builds the cache's line storage.
func (c *Cache) victim(set uint32) int {
	if c.lines == nil {
		c.lines = make([]line, c.cfg.Sets*c.cfg.Ways)
		c.data = make([]byte, len(c.lines)*c.cfg.LineBytes)
	}
	base := int(set) * c.cfg.Ways
	ways := c.lines[base : base+c.cfg.Ways]
	v := 0
	for i := range ways {
		if !ways[i].valid {
			v = i
			break
		}
		if ways[i].lru < ways[v].lru {
			v = i
		}
	}
	if l := &ways[v]; l.valid && l.dirty {
		c.stats.WriteBacks++
		c.xbus.Write(bus.InitCPU, c.lineBase(set, l.tag), c.lineData(base+v))
		l.dirty = false
	}
	return base + v
}

func (c *Cache) lineBase(set, tag uint32) phys.PAddr {
	return phys.PAddr(tag<<c.tagShift | set<<c.setShift)
}

// Load reads size (1, 2 or 4) bytes at a, returning the value and the
// CPU-visible latency. Accesses that straddle a cache line split into
// two line accesses.
func (c *Cache) Load(a phys.PAddr, size int) (uint32, sim.Time) {
	if first := c.cfg.LineBytes - int(uint32(a)&c.lineMask); size > first && !c.xbus.Memory().IsCmd(a) {
		lo, t1 := c.load(a, first)
		hi, t2 := c.load(a+phys.PAddr(first), size-first)
		return lo | hi<<(8*uint(first)), t1 + t2
	}
	return c.load(a, size)
}

func (c *Cache) load(a phys.PAddr, size int) (uint32, sim.Time) {
	if c.xbus.Memory().IsCmd(a) {
		v, done := c.xbus.Read32(bus.InitCPU, a)
		return truncate(v, size), done - c.eng.Now()
	}
	i, lat := c.fetch(a)
	return truncate(read32(c.lineData(i), uint32(a)&c.lineMask), size), lat
}

// fetch returns the index of the line holding DRAM address a and the
// load latency, counting a hit or taking the miss path (victim
// write-back, then fill).
func (c *Cache) fetch(a phys.PAddr) (int, sim.Time) {
	if i := c.lookup(a); i >= 0 {
		c.stats.LoadHits++
		return i, c.cfg.HitTime
	}
	c.stats.LoadMisses++
	set, tag, _ := c.decompose(a)
	i := c.victim(set)
	done := c.xbus.ReadInto(bus.InitCPU, c.lineBase(set, tag), c.lineData(i))
	l := &c.lines[i]
	l.valid, l.dirty, l.tag = true, false, tag
	c.clock++
	l.lru = c.clock
	return i, done - c.eng.Now()
}

// ReadBytes fills out from a onward with exactly the effect of len(out)
// one-byte Loads in address order, latencies discarded. Each line's
// first byte takes the full load path (a hit, or a miss with victim
// write-back and fill); the line's remaining k bytes are copied out and
// charged as the k hits those loads would have been — to LoadHits and
// the LRU clock, so even the clock value matches. Command-space addresses keep one load per byte.
func (c *Cache) ReadBytes(a phys.PAddr, out []byte) {
	for len(out) > 0 {
		if c.xbus.Memory().IsCmd(a) {
			v, _ := c.load(a, 1)
			out[0] = byte(v)
			a, out = a+1, out[1:]
			continue
		}
		i, _ := c.fetch(a)
		n := copy(out, c.lineData(i)[uint32(a)&c.lineMask:])
		k := uint64(n - 1)
		c.stats.LoadHits += k
		c.clock += k
		c.lines[i].lru = c.clock
		a, out = a+phys.PAddr(n), out[n:]
	}
}

// Store writes size (1, 2 or 4) bytes at a. writeThrough selects the
// policy for this access, which the caller derives from the page table
// entry. The returned latency is what the CPU observes.
func (c *Cache) Store(a phys.PAddr, v uint32, size int, writeThrough bool) sim.Time {
	if c.xbus.Memory().IsCmd(a) {
		// Command space writes are uncacheable bus transactions.
		done := c.xbus.Write(bus.InitCPU, a, c.leBytes(v, size))
		return done - c.eng.Now()
	}
	if first := c.cfg.LineBytes - int(uint32(a)&c.lineMask); size > first {
		t1 := c.Store(a, truncate(v, first), first, writeThrough)
		t2 := c.Store(a+phys.PAddr(first), v>>(8*uint(first)), size-first, writeThrough)
		return t1 + t2
	}
	set, tag, off := c.decompose(a)
	if i := c.lookup(a); i >= 0 {
		c.stats.StoreHits++
		write32(c.lineData(i), off, v, size)
		if !writeThrough {
			c.lines[i].dirty = true
			return c.cfg.HitTime
		}
	} else if !writeThrough {
		// Write-back pages write-allocate. The filled line keeps its
		// victim's LRU stamp.
		c.stats.StoreMisses++
		i = c.victim(set)
		data := c.lineData(i)
		c.xbus.ReadInto(bus.InitCPU, c.lineBase(set, tag), data)
		write32(data, off, v, size)
		l := &c.lines[i]
		l.valid, l.dirty, l.tag = true, true, tag
		return c.cfg.HitTime
	} else {
		// Write-through without allocate: the store just goes to the bus.
		c.stats.StoreMisses++
	}
	// Write-through: post the bus write; stall only if the write buffer
	// has run too far ahead of the bus.
	var stall sim.Time
	if ahead := c.xbus.BusyUntil() - c.eng.Now(); ahead > c.cfg.WriteBufferWindow {
		stall = ahead - c.cfg.WriteBufferWindow
		c.stats.WriteBufferStall += stall
	}
	c.xbus.Write(bus.InitCPU, a, c.leBytes(v, size))
	return c.cfg.HitTime + stall
}

// StoreRun stores the 4-byte words of data at a, a 4-byte-aligned DRAM
// address, with exactly the effect of one Store per word in address
// order, each issued the moment the one before it completes. It commits
// words for as long as that needs no engine event: the bus's snoopers
// must take the word without scheduling one (Xpress.RunRoom), and the
// word before it must complete strictly before the next pending event
// and inside the run bound, the hazard rule of the batched CPU. It
// advances the clock to the last committed word's issue time and
// returns the number committed and that word's latency, which the
// caller must still run. Words past a's page are left alone, and so is
// everything when the page is not write-through: n == 0 means the first
// word must take Store.
//
// A plain loop works out each word's issue time, write-buffer stall,
// bus contention wait and the bus's busy-until mark; the effects then
// land in aggregate. Nothing a run does changes a line's validity (the
// cache ignores CPU writes on the bus, and write-through stores do not
// allocate), so one lookup per line decides all its words, charged as
// Store's hits or misses down to the LRU clock, as ReadBytes charges
// loads.
func (c *Cache) StoreRun(a phys.PAddr, data []byte, writeThrough bool) (n int, lat sim.Time) {
	if !writeThrough || a&3 != 0 || c.xbus.Memory().IsCmd(a) {
		return 0, 0
	}
	words := c.xbus.RunRoom(a, min(len(data), phys.PageSize-int(a.Offset()))/4)
	if words <= 0 {
		return 0, 0
	}
	next, bound := c.eng.NextEventAt(), c.eng.RunBound()
	tenure, busy := c.xbus.WordTenure(), c.xbus.BusyUntil()
	t := c.eng.Now() // the current word's issue time
	var stalls, waits sim.Time
	for {
		var stall sim.Time
		if ahead := busy - t; ahead > c.cfg.WriteBufferWindow {
			stall = ahead - c.cfg.WriteBufferWindow
		}
		start := max(t, busy)
		stalls += stall
		waits += start - t
		busy = start + tenure
		lat = c.cfg.HitTime + stall
		if n++; n == words || t+lat >= next || t+lat > bound {
			break
		}
		t += lat
	}
	c.eng.AdvanceTo(t)
	data = data[:4*n]
	for off := 0; off < len(data); {
		la := a + phys.PAddr(off)
		k := min(len(data)-off, c.cfg.LineBytes-int(uint32(la)&c.lineMask))
		w := uint64(k / 4)
		if i := c.lookup(la); i >= 0 {
			c.stats.StoreHits += w
			copy(c.lineData(i)[uint32(la)&c.lineMask:], data[off:off+k])
			c.clock += w - 1
			c.lines[i].lru = c.clock
		} else {
			c.stats.StoreMisses += w
		}
		off += k
	}
	c.stats.WriteBufferStall += stalls
	c.xbus.WriteRun(a, data, t, waits, busy)
	return n, lat
}

// LockedCmpxchg forwards the §4.3 locked read-modify-write to the bus,
// bypassing the cache (LOCK-prefixed operations and command space are
// uncacheable).
func (c *Cache) LockedCmpxchg(a phys.PAddr, expect, repl uint32) (read uint32, swapped bool, lat sim.Time) {
	if !c.xbus.Memory().IsCmd(a) {
		// Keep the cache coherent with a locked RMW on DRAM: the locked
		// cycle reads memory, so a dirty line is written back first, and
		// a cached copy takes the swap.
		if i := c.lookup(a); i >= 0 {
			set, tag, off := c.decompose(a)
			data := c.lineData(i)
			if l := &c.lines[i]; l.dirty {
				c.stats.WriteBacks++
				c.xbus.Write(bus.InitCPU, c.lineBase(set, tag), data)
				l.dirty = false
			}
			if read32(data, off) == expect {
				write32(data, off, repl, 4)
			}
		}
	}
	read, swapped, done := c.xbus.LockedCmpxchg(bus.InitCPU, a, expect, repl)
	return read, swapped, done - c.eng.Now()
}

// FlushPage writes back and invalidates every line belonging to the
// given physical page. The kernel uses it when a page's caching policy
// changes (map to write-through) and around page replacement.
func (c *Cache) FlushPage(page phys.PageNum) {
	lo, hi := uint32(page.Addr(0)), uint32(page.Addr(0))+phys.PageSize
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		base := uint32(c.lineBase(uint32(i/c.cfg.Ways), l.tag))
		if base < lo || base >= hi {
			continue
		}
		if l.dirty {
			c.stats.WriteBacks++
			c.xbus.Write(bus.InitCPU, phys.PAddr(base), c.lineData(i))
		}
		l.valid, l.dirty = false, false
	}
}

// Flush writes back all dirty lines and invalidates the cache.
func (c *Cache) Flush() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty {
			c.stats.WriteBacks++
			c.xbus.Write(bus.InitCPU, c.lineBase(uint32(i/c.cfg.Ways), l.tag), c.lineData(i))
		}
		l.valid, l.dirty = false, false
	}
}

// snoopPort adapts the cache to the bus.Snooper interface: DMA writes
// invalidate matching lines (paper §3: "the caches snoop DMA transactions
// and automatically invalidate corresponding cache lines"). A dirty line
// hit by a partial-line DMA write is merged the way snooping hardware
// does: the cache supplies its dirty line during the snoop phase, the
// DMA bytes win for the range they cover, and the line is invalidated.
type snoopPort struct{ c *Cache }

func (p snoopPort) SnoopWrite(init bus.Initiator, a phys.PAddr, data []byte) {
	if init == bus.InitCPU {
		return
	}
	c := p.c
	first := uint32(a) &^ c.lineMask
	last := (uint32(a) + uint32(len(data)) - 1) &^ c.lineMask
	for base := first; base <= last; base += uint32(c.cfg.LineBytes) {
		i := c.lookup(phys.PAddr(base))
		if i < 0 {
			continue
		}
		l := &c.lines[i]
		if l.dirty {
			// Merge: dirty line data underneath, DMA bytes on top.
			c.xbus.Memory().Write(phys.PAddr(base), c.lineData(i))
			lo, hi := uint32(a), uint32(a)+uint32(len(data))
			if lo < base {
				lo = base
			}
			if end := base + uint32(c.cfg.LineBytes); hi > end {
				hi = end
			}
			c.xbus.Memory().Write(phys.PAddr(lo), data[lo-uint32(a):hi-uint32(a)])
		}
		l.valid = false
		l.dirty = false
		c.stats.SnoopInvalidations++
	}
}

// SnoopRoom implements bus.RunSnooper: the invalidation port ignores CPU
// writes, so it never bounds a run.
func (p snoopPort) SnoopRoom(_ phys.PAddr, words int) int { return words }

// SnoopRun implements bus.RunSnooper; CPU writes leave the lines alone.
func (p snoopPort) SnoopRun(phys.PAddr, []byte, sim.Time) {}

func read32(b []byte, off uint32) uint32 {
	if int(off)+4 <= len(b) {
		return binary.LittleEndian.Uint32(b[off:])
	}
	var v uint32
	for i := uint32(0); int(off+i) < len(b); i++ {
		v |= uint32(b[off+i]) << (8 * i)
	}
	return v
}

func write32(b []byte, off uint32, v uint32, size int) {
	for i := 0; i < size; i++ {
		if int(off)+i < len(b) {
			b[off+uint32(i)] = byte(v >> (8 * i))
		}
	}
}

func truncate(v uint32, size int) uint32 {
	if size <= 0 || size > 4 {
		panic(fmt.Sprintf("cache: bad access size %d", size))
	}
	if size == 4 {
		return v
	}
	return v & (1<<(8*uint(size)) - 1)
}

// leBytes encodes v into the cache's scratch buffer. Bus consumers copy
// write data synchronously and never retain the slice, so reusing one
// buffer per cache is safe.
func (c *Cache) leBytes(v uint32, size int) []byte {
	b := c.scratch[:size]
	for i := 0; i < size; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
