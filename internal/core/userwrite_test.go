package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/vm"
)

// userWriteBytesPerWord is the reference UserWriteBytes: one UserWrite32
// per whole word, then one one-byte store per tail byte, each translated,
// stored through Cache.Store and run for its own latency.
func userWriteBytesPerWord(n *Node, p *kernel.Process, va vm.VAddr, b []byte) error {
	i := 0
	for ; i+4 <= len(b); i += 4 {
		if err := n.UserWrite32(p, va+vm.VAddr(i), binary.LittleEndian.Uint32(b[i:])); err != nil {
			return err
		}
	}
	for ; i < len(b); i++ {
		if err := n.userStore(p, va+vm.VAddr(i), uint32(b[i]), 1); err != nil {
			return err
		}
	}
	return nil
}

// pageKind is how one page of the written range is mapped and cached.
type pageKind uint8

const (
	pageBlocked    pageKind = iota // blocked-write automatic update
	pageSingle                     // single-write automatic update
	pageDeliberate                 // deliberate update: stores only update memory
	pagePrivate                    // write-through, mapped nowhere: the snoop filter skips it
	pageSplit                      // MapOutSplit, see writeRig
	pageWriteBack                  // AllocPages' write-back caching
	pageReadOnly                   // not writable: the write faults on reaching it
	numPageKinds
)

// background is the traffic node 1 sends into the writing node, so that
// engine events (deposits, bridge writes holding the bus) land mid-write.
type background uint8

const (
	bgNone   background = iota
	bgDMA               // a one-page deliberate-update transfer
	bgStores            // a single-write store stream whose packets are still in flight
	numBackgrounds
)

// writePages is the number of consecutive pages a writeRig maps.
const writePages = 8

// writeCase is one UserWriteBytes differential scenario: a machine
// set-up and a sequence of writes into its pages.
type writeCase struct {
	gen       nic.Generation
	telemetry bool // metrics and the flight recorder on
	smallFIFO bool // a 1 KB Outgoing-FIFO threshold, so long writes stall
	bg        background
	kinds     [writePages]pageKind
	writes    []userWrite
}

// userWrite is one write of a writeCase, with what comes just before it.
type userWrite struct {
	warm  bool     // read the range first, so write-through stores hit the cache
	bg    bool     // start the case's background traffic
	delay sim.Time // then let the machine run this long
	prior int      // if positive, a word goes to offset prior-4 first
	off   int      // from the base of the rig's pages
	n     int      // bytes written
	seed  byte     // of the written bytes
}

// decodeWriteCase reads a writeCase from fuzz input (zeros once it runs
// out): a flags byte, one kind byte per page, then up to three writes
// of eight bytes each: a flags byte, offset and length (two bytes each,
// little endian), a delay in 20 ns steps, a seed, and the prior word's
// place in 16-byte steps from the start of the write's first page.
func decodeWriteCase(in []byte) writeCase {
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		v := in[0]
		in = in[1:]
		return int(v)
	}
	flags := next()
	c := writeCase{
		gen:       nic.Generation(flags & 1),
		telemetry: flags&2 != 0,
		smallFIFO: flags&4 != 0,
		bg:        background(flags >> 3 % int(numBackgrounds)),
	}
	for i := range c.kinds {
		c.kinds[i] = pageKind(next() % int(numPageKinds))
	}
	for len(c.writes) == 0 || len(in) > 0 && len(c.writes) < 3 {
		f := next()
		w := userWrite{warm: f&1 != 0, bg: f&2 != 0}
		w.off = (next() | next()<<8) % (writePages * phys.PageSize)
		w.n = min((next()|next()<<8)%(3*phys.PageSize+4), writePages*phys.PageSize-w.off)
		w.delay = sim.Time(next()) * 20 * sim.Nanosecond
		w.seed = byte(next())
		if pr := next(); pr != 0 {
			w.prior = w.off&^(phys.PageSize-1) + pr*16
		}
		c.writes = append(c.writes, w)
	}
	return c
}

// writeRig is one twin of a writeCase: a 2-node machine whose node 0
// process p holds writePages consecutive virtual pages at va, mapped to
// node 1 as the case's kinds say, and node 1 ready to send c.bg.
type writeRig struct {
	m       *Machine
	w       *Node
	p       *kernel.Process
	va      vm.VAddr
	startBG func()
}

func newWriteRig(t testing.TB, c writeCase) *writeRig {
	t.Helper()
	cfg := ConfigFor(2, 1, c.gen)
	cfg.MemPagesPerNode = 64
	if c.telemetry {
		cfg.Metrics = true
		cfg.Recorder = obs.RecorderConfig{Interval: 2 * sim.Microsecond}
	}
	if c.smallFIFO {
		cfg.NIC.OutThreshold = 1024
		cfg.NIC.OutFIFOBytes = 6144
	}
	m := New(cfg)
	w, r := m.Node(0), m.Node(1)
	// Every other frame from the top half, so a write crossing a page
	// boundary must translate again.
	var free []phys.PageNum
	for f := cfg.MemPagesPerNode - 2; f >= cfg.MemPagesPerNode/2; f -= 2 {
		free = append(free, phys.PageNum(f))
	}
	w.K.SetFreePages(free)
	alloc := func(p *kernel.Process, pages int) vm.VAddr {
		va, err := p.AllocPages(pages)
		if err != nil {
			t.Fatal(err)
		}
		return va
	}
	frame := func(p *kernel.Process, va vm.VAddr) phys.PageNum {
		f, ok := p.FrameOf(va)
		if !ok {
			t.Fatalf("no frame behind %#x", uint32(va))
		}
		return f
	}
	writeThrough := func(p *kernel.Process, va vm.VAddr) {
		pte, _ := p.AS.Lookup(va.Page())
		pte.WriteThrough = true
		p.AS.Map(va.Page(), pte)
	}
	p, q := w.K.CreateProcess(), r.K.CreateProcess()
	va := alloc(p, writePages)
	rva := alloc(q, writePages+1)
	for i, k := range c.kinds {
		pva, qva := va+vm.VAddr(i*phys.PageSize), rva+vm.VAddr(i*phys.PageSize)
		switch k {
		case pageBlocked:
			m.MustMap(p, pva, phys.PageSize, r.ID, q.PID, qva, nipt.BlockedWriteAU)
		case pageSingle:
			m.MustMap(p, pva, phys.PageSize, r.ID, q.PID, qva, nipt.SingleWriteAU)
		case pageDeliberate:
			m.MustMap(p, pva, phys.PageSize, r.ID, q.PID, qva, nipt.DeliberateUpdate)
		case pagePrivate:
			writeThrough(p, pva)
		case pageSplit:
			// Two blocked-write halves split at an unaligned offset and
			// shifted within their remote pages: the word at 1024 still
			// belongs to the low half, and high-half offsets from 2596
			// on run past their remote page and resolve to nothing.
			writeThrough(p, pva)
			lo, hi := frame(q, qva), frame(q, rva+writePages*phys.PageSize)
			r.NIC.Table().Entry(lo).MappedIn = true
			r.NIC.Table().Entry(hi).MappedIn = true
			half := func(dst phys.PageNum, shift int32) nipt.OutMapping {
				return nipt.OutMapping{Mode: nipt.BlockedWriteAU, DstNode: r.ID, DstPage: dst, DstShift: shift}
			}
			w.NIC.Table().MapOutSplit(frame(p, pva), 1026, half(lo, 2000), half(hi, 1500))
		case pageReadOnly:
			p.AS.SetWritable(pva.Page(), false)
		}
	}
	rig := &writeRig{m: m, w: w, p: p, va: va, startBG: func() {}}
	if c.bg != bgNone {
		b := w.K.CreateProcess()
		src, dst := alloc(q, 1), alloc(b, 1)
		switch c.bg {
		case bgDMA:
			m.MustMap(q, src, phys.PageSize, w.ID, b.PID, dst, nipt.DeliberateUpdate)
			if err := r.K.GrantCommandPages(q, src, src+0x4000_0000, 1); err != nil {
				t.Fatal(err)
			}
			tr, f := q.AS.Translate(src+0x4000_0000, true)
			if f != nil {
				t.Fatal(f)
			}
			rig.startBG = func() {
				// The engine may still be busy with the last transfer;
				// then nothing starts, on both twins alike.
				r.Cache.LockedCmpxchg(tr.PA, 0, nic.MaxDMAWords)
			}
		case bgStores:
			m.MustMap(q, src, phys.PageSize, w.ID, b.PID, dst, nipt.SingleWriteAU)
			stream := make([]byte, 256)
			rig.startBG = func() {
				if err := r.UserWriteBytes(q, src, stream); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := m.RunUntilIdle(1_000_000); err != nil {
		t.Fatal(err)
	}
	return rig
}

// sameMachine fails unless a and the reference b are in the same
// simulated state: clock and event queue, and on every node DRAM, cache
// statistics and every line (valid, dirty, tag, age and data, plus the
// LRU clock), Xpress, EISA and NIC statistics and FIFO state; then the
// obs registry and the flight recorder's series.
func sameMachine(t testing.TB, what string, a, b *Machine) {
	t.Helper()
	if a.Now() != b.Now() || a.Fired() != b.Fired() || a.Eng.Pending() != b.Eng.Pending() {
		t.Fatalf("%s: now %v fired %d pending %d; reference now %v fired %d pending %d",
			what, a.Now(), a.Fired(), a.Eng.Pending(), b.Now(), b.Fired(), b.Eng.Pending())
	}
	for i, na := range a.Nodes {
		nb := b.Nodes[i]
		if x, y := na.Cache.Stats(), nb.Cache.Stats(); x != y {
			t.Fatalf("%s: node %d cache stats\n got %+v\nwant %+v", what, i, x, y)
		}
		la, ca := na.Cache.Lines()
		lb, cb := nb.Cache.Lines()
		if ca != cb {
			t.Fatalf("%s: node %d LRU clock %d, reference %d", what, i, ca, cb)
		}
		for j := range la {
			if !reflect.DeepEqual(la[j], lb[j]) {
				t.Fatalf("%s: node %d cache line %d\n got %+v\nwant %+v", what, i, j, la[j], lb[j])
			}
		}
		if x, y := na.Xbus.Stats(), nb.Xbus.Stats(); x != y {
			t.Fatalf("%s: node %d Xpress stats\n got %+v\nwant %+v", what, i, x, y)
		}
		if na.EISA != nil && na.EISA.Stats() != nb.EISA.Stats() {
			t.Fatalf("%s: node %d EISA stats\n got %+v\nwant %+v", what, i, na.EISA.Stats(), nb.EISA.Stats())
		}
		if x, y := na.NIC.Stats(), nb.NIC.Stats(); x != y {
			t.Fatalf("%s: node %d NIC stats\n got %+v\nwant %+v", what, i, x, y)
		}
		if na.NIC.OutFIFOBytes() != nb.NIC.OutFIFOBytes() || na.NIC.OutStalled() != nb.NIC.OutStalled() {
			t.Fatalf("%s: node %d Outgoing FIFO %d bytes stalled=%v; reference %d stalled=%v", what, i,
				na.NIC.OutFIFOBytes(), na.NIC.OutStalled(), nb.NIC.OutFIFOBytes(), nb.NIC.OutStalled())
		}
		size := int(na.Mem.Size())
		if ma, mb := na.Mem.Read(0, size), nb.Mem.Read(0, size); !bytes.Equal(ma, mb) {
			at := 0
			for ma[at] == mb[at] {
				at++
			}
			t.Fatalf("%s: node %d DRAM differs first at %#x: %#x, reference %#x", what, i, at, ma[at], mb[at])
		}
	}
	if x, y := a.Obs.Snapshot(), b.Obs.Snapshot(); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: obs registry\n got %+v\nwant %+v", what, x, y)
	}
	if a.Rec != nil && !reflect.DeepEqual(a.Rec.Series(), b.Rec.Series()) {
		t.Fatalf("%s: flight recorder series differ", what)
	}
}

// runWriteCase runs the case on twin machines, each write through
// UserWriteBytes on one and the per-word reference on the other, and
// requires the same error and the same machine state after every write
// and again once both have drained. It returns the reference machine and
// the writes' errors.
func runWriteCase(t testing.TB, c writeCase) (*Machine, []error) {
	t.Helper()
	rigs := [2]*writeRig{newWriteRig(t, c), newWriteRig(t, c)}
	var errs []error
	for i, w := range c.writes {
		data := make([]byte, w.n)
		for j := range data {
			data[j] = byte(j*7) ^ w.seed
		}
		var got [2]error
		for k, write := range []func(*Node, *kernel.Process, vm.VAddr, []byte) error{
			(*Node).UserWriteBytes, userWriteBytesPerWord,
		} {
			rig := rigs[k]
			if w.warm {
				if err := rig.w.UserReadBytes(rig.p, rig.va+vm.VAddr(w.off), make([]byte, w.n)); err != nil {
					t.Fatal(err)
				}
			}
			if w.bg {
				rig.startBG()
			}
			rig.m.RunFor(w.delay)
			if w.prior > 0 {
				// A read-only page faults here, on both twins alike.
				_ = rig.w.UserWrite32(rig.p, rig.va+vm.VAddr(w.prior-4), 0x5eed)
			}
			got[k] = write(rig.w, rig.p, rig.va+vm.VAddr(w.off), data)
		}
		if fmt.Sprint(got[0]) != fmt.Sprint(got[1]) {
			t.Fatalf("write %d: UserWriteBytes returned %v, the per-word reference %v", i, got[0], got[1])
		}
		sameMachine(t, fmt.Sprintf("after write %d (%+v)", i, w), rigs[0].m, rigs[1].m)
		errs = append(errs, got[1])
	}
	for _, rig := range rigs {
		if err := rig.m.RunUntilIdle(5_000_000); err != nil {
			t.Fatal(err)
		}
	}
	sameMachine(t, "drained", rigs[0].m, rigs[1].m)
	return rigs[1].m, errs
}

// UserWriteBytes must be indistinguishable from one UserWrite32 per word
// (and one one-byte store per tail byte): the same bytes everywhere, the
// same clock and events, and the same cache, bus, NIC and obs state.
// Each twin pair maps blocked-write, single-write, deliberate, private,
// split, write-back and read-only pages and writes across them: aligned,
// unaligned and page-crossing ranges, runs cut by background traffic,
// merge timers and packet, split and remote-page boundaries, an
// Outgoing-FIFO stall and a fault.
func TestUserWriteBytesMatchesPerWordReference(t *testing.T) {
	const page = phys.PageSize
	cases := []struct {
		name  string
		c     writeCase
		fault int // the one write that must fault
	}{
		{name: "EISA, background DMA", fault: 5, c: writeCase{
			smallFIFO: true, bg: bgDMA,
			kinds: [writePages]pageKind{pageBlocked, pageDeliberate, pageSingle, pagePrivate,
				pageSplit, pageWriteBack, pageBlocked, pageReadOnly},
			writes: []userWrite{
				// Automatic and deliberate pages, a full single-write page
				// (which stalls the small FIFO) and a tail.
				{warm: true, bg: true, n: 3*page + 3},
				// From 64 words before the split point, so steady-state
				// runs reach it, on into the write-back page.
				{warm: true, off: 4*page + 772, n: page},
				// From 64 words before the high half runs off its remote
				// page.
				{bg: true, delay: 300 * sim.Nanosecond, off: 4*page + 2340, n: 600, seed: 3},
				// After a word elsewhere in the page has opened a packet
				// on the same mapping that the write does not continue.
				{prior: 6*page + 2048, off: 6*page + 512, n: 700, seed: 5},
				{bg: true, off: 3*page + 2050, n: 2*page + 7, seed: 9}, // unaligned
				{warm: true, off: 6*page + 8, n: 6000},                 // into the read-only page
				{off: 36, n: 11},                                       // within one line
				{off: 100},                                             // empty
			},
		}},
		{name: "Xpress, telemetry, background stores", fault: 3, c: writeCase{
			gen: nic.GenXpress, telemetry: true, smallFIFO: true, bg: bgStores,
			kinds: [writePages]pageKind{pageDeliberate, pageSplit, pageBlocked, pageWriteBack,
				pageSingle, pagePrivate, pageReadOnly, pageBlocked},
			writes: []userWrite{
				{bg: true, delay: 300 * sim.Nanosecond, off: 1020, n: 3*page - 2},
				{warm: true, off: page + 772, n: page, seed: 1},
				{bg: true, off: 4*page + 4, n: page + 1, seed: 2},
				{off: 5*page + 2050, n: page + 9}, // unaligned, into the read-only page
				{prior: 7*page + 1024, off: 7*page + 2048, n: 1024, seed: 4},
				{warm: true, bg: true, off: 2*page + 2340, n: 3 * page / 2},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, errs := runWriteCase(t, tc.c)
			for i, err := range errs {
				if (i == tc.fault) != (err != nil) {
					t.Fatalf("write %d returned %v", i, err)
				}
			}
			if ref.Node(0).NIC.Stats().OutFullEvents == 0 {
				t.Fatal("the Outgoing FIFO never stalled")
			}
		})
	}
}

// FuzzUserWriteBytesMatchesPerWord runs decodeWriteCase's scenarios
// through runWriteCase: random page kinds, offsets, lengths, background
// traffic, FIFO thresholds, telemetry, and up to three writes.
func FuzzUserWriteBytesMatchesPerWord(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		runWriteCase(t, decodeWriteCase(in))
	})
}
