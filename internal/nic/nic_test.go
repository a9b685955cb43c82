package nic

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/mesh"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
)

// rig is a two-node NIC test bench built straight from the hardware
// models (no kernel): node 0 at (0,0), node 1 at (1,0).
type rig struct {
	eng  *sim.Engine
	net  *mesh.Network
	mem  [2]*phys.Memory
	xbus [2]*bus.Xpress
	eisa [2]*bus.EISA
	nics [2]*NIC
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine()}
	r.net = mesh.New(r.eng, mesh.DefaultConfig(2, 1))
	for i := 0; i < 2; i++ {
		r.mem[i] = phys.NewMemory(16)
		r.xbus[i] = bus.NewXpress(r.eng, bus.DefaultXpressConfig(), r.mem[i])
		if cfg.Generation == GenEISAPrototype {
			r.eisa[i] = bus.NewEISA(r.eng, bus.DefaultEISAConfig(), r.xbus[i])
		}
		r.nics[i] = New(r.eng, cfg, packet.NodeID(i), packet.Coord{X: i, Y: 0},
			nipt.New(16), r.xbus[i], r.eisa[i], r.net)
	}
	return r
}

// mapOut installs a whole-page single-direction mapping 0 -> 1.
func (r *rig) mapOut(srcPage, dstPage phys.PageNum, mode nipt.Mode) {
	r.nics[0].Table().MapOut(srcPage, nipt.OutMapping{
		Mode: mode, DstNode: 1, DstPage: dstPage,
	})
	r.nics[1].Table().Entry(dstPage).MappedIn = true
}

func (r *rig) cpuWrite32(node int, a phys.PAddr, v uint32) {
	r.xbus[node].Write32(bus.InitCPU, a, v)
}

func (r *rig) drain() { r.eng.Drain(10_000_000) }

func TestSingleWriteForwarding(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	r.cpuWrite32(0, phys.PageNum(4).Addr(12), 0xfeedface)
	r.drain()
	if got := r.mem[1].Read32(phys.PageNum(8).Addr(12)); got != 0xfeedface {
		t.Fatalf("remote word %#x", got)
	}
	s0, s1 := r.nics[0].Stats(), r.nics[1].Stats()
	if s0.PacketsOut != 1 || s1.PacketsIn != 1 || s1.BytesIn != 4 {
		t.Fatalf("stats %+v %+v", s0, s1)
	}
	if !r.nics[0].Quiesced() || !r.nics[1].Quiesced() {
		t.Fatal("NICs not quiescent")
	}
}

func TestUnmappedWritesIgnored(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	r.drain()
	if r.nics[0].Stats().PacketsOut != 0 {
		t.Fatal("unmapped write forwarded")
	}
	// The page-granular snoop filter short-circuits writes to pages with
	// no out-mapping before the snooper fan-out: the NIC never sees them.
	if r.nics[0].Stats().SnoopedWrites != 0 {
		t.Fatal("unmapped write reached the NIC snooper")
	}
	if r.xbus[0].Stats().SnoopsFiltered != 1 {
		t.Fatalf("snoop filter stats %+v", r.xbus[0].Stats())
	}
	// A write to a mapped page must still pass the filter.
	r.mapOut(4, 8, nipt.SingleWriteAU)
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 2)
	r.drain()
	if r.nics[0].Stats().SnoopedWrites != 1 {
		t.Fatal("mapped write filtered out")
	}
}

func TestDMAWritesNotForwarded(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	r.xbus[0].Write32(bus.InitBridge, phys.PageNum(4).Addr(0), 7)
	r.xbus[0].Write32(bus.InitNIC, phys.PageNum(4).Addr(4), 8)
	r.drain()
	if r.nics[0].Stats().PacketsOut != 0 {
		t.Fatal("non-CPU write forwarded (forwarding loop hazard)")
	}
}

func TestBlockedWriteMerging(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	// Consecutive stores merge into one packet.
	for i := 0; i < 16; i++ {
		r.cpuWrite32(0, phys.PageNum(4).Addr(uint32(4*i)), uint32(i+1))
		r.eng.RunFor(50 * sim.Nanosecond) // within the merge window
	}
	r.drain()
	s0 := r.nics[0].Stats()
	if s0.PacketsOut != 1 {
		t.Fatalf("%d packets for 16 consecutive stores", s0.PacketsOut)
	}
	if s0.MergedWrites != 15 {
		t.Fatalf("merged %d", s0.MergedWrites)
	}
	for i := 0; i < 16; i++ {
		if got := r.mem[1].Read32(phys.PageNum(8).Addr(uint32(4 * i))); got != uint32(i+1) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

func TestBlockedWriteWindowCloses(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	// Let more than the merge window pass.
	r.eng.RunFor(cfg.MergeWindow * 3)
	r.cpuWrite32(0, phys.PageNum(4).Addr(4), 2)
	r.drain()
	if r.nics[0].Stats().PacketsOut != 2 {
		t.Fatalf("window expiry should split packets, got %d", r.nics[0].Stats().PacketsOut)
	}
}

func TestNonContiguousWritesSplitPackets(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	r.cpuWrite32(0, phys.PageNum(4).Addr(100), 2) // gap
	r.drain()
	if r.nics[0].Stats().PacketsOut != 2 {
		t.Fatalf("non-contiguous stores merged: %d packets", r.nics[0].Stats().PacketsOut)
	}
	if r.mem[1].Read32(phys.PageNum(8).Addr(0)) != 1 ||
		r.mem[1].Read32(phys.PageNum(8).Addr(100)) != 2 {
		t.Fatal("data lost")
	}
}

func TestMaxPayloadBoundsMergedPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPayload = 64
	r := newRig(t, cfg)
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	for i := 0; i < 32; i++ { // 128 contiguous bytes
		r.cpuWrite32(0, phys.PageNum(4).Addr(uint32(4*i)), uint32(i))
	}
	r.drain()
	if got := r.nics[0].Stats().PacketsOut; got != 2 {
		t.Fatalf("%d packets for 128B with 64B max payload", got)
	}
}

func TestSingleWriteFlushesOpenMergeInOrder(t *testing.T) {
	// A store through a single-write mapping must not overtake an open
	// blocked-write packet: store order is delivery order.
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	r.nics[0].Table().MapOut(5, nipt.OutMapping{
		Mode: nipt.SingleWriteAU, DstNode: 1, DstPage: 9,
	})
	r.nics[1].Table().Entry(9).MappedIn = true

	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1) // opens a merge
	r.cpuWrite32(0, phys.PageNum(5).Addr(0), 2) // must flush then send
	r.drain()
	if r.nics[0].Stats().PacketsOut != 2 {
		t.Fatalf("packets %d", r.nics[0].Stats().PacketsOut)
	}
	if r.mem[1].Read32(phys.PageNum(8).Addr(0)) != 1 || r.mem[1].Read32(phys.PageNum(9).Addr(0)) != 2 {
		t.Fatal("data lost")
	}
}

func TestNotMappedInDropped(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Outgoing mapping but the receiver NEVER marked the page mapped in:
	// protection drops the packet.
	r.nics[0].Table().MapOut(4, nipt.OutMapping{
		Mode: nipt.SingleWriteAU, DstNode: 1, DstPage: 8,
	})
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 0xbad)
	r.drain()
	if r.nics[1].Stats().DropNotMappedIn != 1 {
		t.Fatal("unsolicited packet not dropped")
	}
	if r.mem[1].Read32(phys.PageNum(8).Addr(0)) != 0 {
		t.Fatal("unsolicited data written to memory")
	}
}

func TestCorruptPacketDropped(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	p := &packet.Packet{
		Src: packet.Coord{X: 0, Y: 0}, Dst: packet.Coord{X: 1, Y: 0},
		DstAddr: phys.PageNum(8).Addr(0), Payload: []byte{1, 2, 3, 4},
		Corrupt: true,
	}
	r.net.Inject(packet.Coord{X: 0, Y: 0}, p, p.WireSize())
	r.drain()
	if r.nics[1].Stats().DropCRC != 1 {
		t.Fatal("corrupt packet accepted")
	}
	if r.mem[1].Read32(phys.PageNum(8).Addr(0)) != 0 {
		t.Fatal("corrupt data deposited")
	}
}

func TestWrongDestinationDropped(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	// A misrouted packet: Dst coords say (0,0) but it is delivered into
	// node 1's endpoint by injecting directly at its port.
	p := &packet.Packet{
		Src: packet.Coord{X: 0, Y: 0}, Dst: packet.Coord{X: 1, Y: 0},
		DstAddr: phys.PageNum(8).Addr(0), Payload: []byte{1, 2, 3, 4},
	}
	p.Dst = packet.Coord{X: 0, Y: 0} // lie about the destination
	// Hand it to node 1's endpoint directly, as a routing fault would.
	ep := anyEndpoint(r.nics[1])
	if !ep.Accept(p, p.WireSize()) {
		t.Fatal("accept")
	}
	ep.Deliver(p, p.WireSize())
	r.drain()
	if r.nics[1].Stats().DropWrongDest != 1 {
		t.Fatal("misrouted packet accepted")
	}
}

func anyEndpoint(n *NIC) mesh.Endpoint { return (*endpoint)(n) }

func TestSplitPageThroughFullPath(t *testing.T) {
	// §3.2: one local page split between two destinations at offset 2048.
	r := newRig(t, DefaultConfig())
	lo := nipt.OutMapping{Mode: nipt.SingleWriteAU, DstNode: 1, DstPage: 8}
	hi := nipt.OutMapping{Mode: nipt.SingleWriteAU, DstNode: 1, DstPage: 9, DstShift: -2048}
	r.nics[0].Table().MapOutSplit(4, 2048, lo, hi)
	r.nics[1].Table().Entry(8).MappedIn = true
	r.nics[1].Table().Entry(9).MappedIn = true

	r.cpuWrite32(0, phys.PageNum(4).Addr(100), 11)
	r.cpuWrite32(0, phys.PageNum(4).Addr(2100), 22)
	r.drain()
	if r.mem[1].Read32(phys.PageNum(8).Addr(100)) != 11 {
		t.Fatal("lo half misdelivered")
	}
	if r.mem[1].Read32(phys.PageNum(9).Addr(52)) != 22 {
		t.Fatal("hi half misdelivered (shift not applied)")
	}
}

func TestRecvInterruptCommand(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	var irqs []phys.PageNum
	r.nics[1].OnIRQ = func(cause IRQCause, page phys.PageNum) {
		if cause == IRQRecv {
			irqs = append(irqs, page)
		}
	}
	// Arm interrupt-on-arrival for page 8 via its command page (§4.2),
	// as the receiving node's CPU would.
	cmdAddr := r.mem[1].CmdPageFor(8)
	r.xbus[1].Write32(bus.InitCPU, cmdAddr, CmdSetRecvInterrupt)

	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	r.drain()
	if len(irqs) != 1 || irqs[0] != 8 {
		t.Fatalf("irqs %v", irqs)
	}
	// Disarm and send again: no interrupt.
	r.xbus[1].Write32(bus.InitCPU, cmdAddr, CmdClearRecvInterrupt)
	r.cpuWrite32(0, phys.PageNum(4).Addr(4), 2)
	r.drain()
	if len(irqs) != 1 {
		t.Fatal("interrupt after disarm")
	}
}

func TestModeSwitchCommand(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	cmdAddr := r.mem[0].CmdPageFor(4)
	// Switch to blocked-write via the command page.
	r.xbus[0].Write32(bus.InitCPU, cmdAddr, CmdModeBlockedWrite)
	for i := 0; i < 8; i++ {
		r.cpuWrite32(0, phys.PageNum(4).Addr(uint32(4*i)), uint32(i))
	}
	r.drain()
	if got := r.nics[0].Stats().PacketsOut; got != 1 {
		t.Fatalf("after switch to blocked-write: %d packets", got)
	}
	// And back to single-write.
	r.xbus[0].Write32(bus.InitCPU, cmdAddr, CmdModeSingleWrite)
	r.cpuWrite32(0, phys.PageNum(4).Addr(64), 9)
	r.cpuWrite32(0, phys.PageNum(4).Addr(68), 10)
	r.drain()
	if got := r.nics[0].Stats().PacketsOut; got != 3 {
		t.Fatalf("after switch back: %d packets", got)
	}
	// Mode switch on a deliberate-update page is refused.
	r.nics[0].Table().MapOut(5, nipt.OutMapping{
		Mode: nipt.DeliberateUpdate, DstNode: 1, DstPage: 9,
	})
	if r.nics[0].CmdWrite(r.mem[0].CmdPageFor(5), CmdModeBlockedWrite) {
		t.Fatal("mode switch on deliberate page accepted")
	}
}

func TestDeliberateUpdateProtocol(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.DeliberateUpdate)
	for i := 0; i < 32; i++ {
		r.mem[0].Write32(phys.PageNum(4).Addr(uint32(4*i)), uint32(1000+i))
	}
	cmdAddr := r.mem[0].CmdPageFor(4)

	// Status read while idle: zero.
	if v, _ := r.xbus[0].Read32(bus.InitCPU, cmdAddr); v != 0 {
		t.Fatalf("idle status %d", v)
	}
	// The locked CMPXCHG protocol.
	read, swapped, _ := r.xbus[0].LockedCmpxchg(bus.InitCPU, cmdAddr, 0, 32)
	if !swapped || read != 0 {
		t.Fatal("start rejected")
	}
	// While busy: status is remaining<<1|match and a second start fails.
	if v := r.nics[0].CmdRead(cmdAddr); v == 0 || v&1 != 1 {
		t.Fatalf("busy status %#x", v)
	}
	if v := r.nics[0].CmdRead(cmdAddr + 8); v&1 != 0 {
		t.Fatal("address-match flag set for a different address")
	}
	if _, swapped, _ := r.xbus[0].LockedCmpxchg(bus.InitCPU, cmdAddr, 0, 16); swapped {
		t.Fatal("second start accepted while busy")
	}
	// A raw (non-CMPXCHG) command write while busy is rejected outright.
	if r.nics[0].CmdWrite(cmdAddr, 16) {
		t.Fatal("raw start accepted while busy")
	}
	if r.nics[0].Stats().DMARejected != 1 {
		t.Fatal("rejection not counted")
	}
	r.drain()
	for i := 0; i < 32; i++ {
		if got := r.mem[1].Read32(phys.PageNum(8).Addr(uint32(4 * i))); got != uint32(1000+i) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	if v := r.nics[0].CmdRead(cmdAddr); v != 0 {
		t.Fatal("status nonzero after completion")
	}
	if r.nics[0].Stats().DMATransfers != 1 {
		t.Fatal("transfer not counted")
	}
}

func TestDeliberateUpdateRejectsBadCommands(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.DeliberateUpdate)
	cmd := r.mem[0].CmdPageFor(4)
	// Zero words.
	if r.nics[0].CmdWrite(cmd, 0) {
		t.Fatal("zero-word transfer accepted")
	}
	// More than a page.
	if r.nics[0].CmdWrite(cmd, MaxDMAWords+1) {
		t.Fatal("over-page transfer accepted")
	}
	// Crossing the page end.
	if r.nics[0].CmdWrite(cmd+4000, 100) {
		t.Fatal("page-crossing transfer accepted")
	}
	// Page not mapped deliberate.
	r.mapOut(5, 9, nipt.SingleWriteAU)
	if r.nics[0].CmdWrite(r.mem[0].CmdPageFor(5), 4) {
		t.Fatal("transfer on AU page accepted")
	}
}

func TestOutgoingFIFOThresholdFreezesAndResumes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutFIFOBytes = 2048
	cfg.OutThreshold = 1024
	r := newRig(t, cfg)
	r.mapOut(4, 8, nipt.SingleWriteAU)

	full, drained := 0, 0
	r.nics[0].OnOutFull = func() { full++ }
	r.nics[0].OnOutDrained = func() { drained++ }

	// Issue stores until the NIC reports full, respecting the freeze the
	// way a CPU would: stop storing while stalled, and pay at least one
	// CPU cycle per store.
	issued := 0
	for i := 0; i < 500; i++ {
		for r.nics[0].OutStalled() {
			if !r.eng.Step() {
				t.Fatal("engine dry while stalled")
			}
		}
		r.cpuWrite32(0, phys.PageNum(4).Addr(uint32(4*(i%1024))), uint32(i))
		issued++
		r.eng.RunFor(20 * sim.Nanosecond)
	}
	r.drain()
	if full == 0 || drained != full {
		t.Fatalf("full=%d drained=%d", full, drained)
	}
	s := r.nics[0].Stats()
	if s.MaxOutFIFOBytes > cfg.OutFIFOBytes {
		t.Fatalf("outgoing FIFO exceeded capacity: %d", s.MaxOutFIFOBytes)
	}
	if s.OutStallTime == 0 {
		t.Fatal("stall time not accounted")
	}
	if s.PacketsOut != uint64(issued) {
		t.Fatalf("lost packets: %d out for %d stores", s.PacketsOut, issued)
	}
}

func TestIncomingFIFOBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InFIFOBytes = 8 * 1024
	cfg.InThreshold = 2048
	r := newRig(t, cfg)
	r.mapOut(4, 8, nipt.DeliberateUpdate)
	for i := uint32(0); i < phys.PageSize/4; i++ {
		r.mem[0].Write32(phys.PageNum(4).Addr(i*4), i)
	}
	cmd := r.mem[0].CmdPageFor(4)
	// Stream several page transfers back to back; the EISA deposit is
	// slow, so the incoming FIFO throttles the mesh.
	for k := 0; k < 6; k++ {
		for {
			_, swapped, _ := r.xbus[0].LockedCmpxchg(bus.InitCPU, cmd, 0, MaxDMAWords)
			if swapped {
				break
			}
			if !r.eng.Step() {
				t.Fatal("engine dry")
			}
		}
	}
	r.drain()
	s1 := r.nics[1].Stats()
	if s1.MaxInFIFOBytes > cfg.InFIFOBytes {
		t.Fatalf("incoming FIFO exceeded capacity: %d", s1.MaxInFIFOBytes)
	}
	if r.net.Stats().Parked == 0 {
		t.Fatal("no backpressure parks under saturation")
	}
	if s1.BytesIn != 6*phys.PageSize {
		t.Fatalf("delivered %d bytes", s1.BytesIn)
	}
	// Every word of the final state is the page content.
	for i := uint32(0); i < phys.PageSize/4; i++ {
		if r.mem[1].Read32(phys.PageNum(8).Addr(i*4)) != i {
			t.Fatalf("word %d corrupted", i)
		}
	}
}

func TestKernelRingPacketsRaiseRingIRQ(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	r.nics[0].Table().Entry(4).KernelRing = true
	r.nics[1].Table().Entry(8).KernelRing = true
	var rings []phys.PageNum
	r.nics[1].OnIRQ = func(cause IRQCause, page phys.PageNum) {
		if cause == IRQKernelRing {
			rings = append(rings, page)
		}
	}
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	r.drain()
	if len(rings) != 1 || rings[0] != 8 {
		t.Fatalf("ring irqs %v", rings)
	}
	if r.nics[0].Stats().KernelPacketsOut != 1 {
		t.Fatal("kernel packet not classified")
	}
}

func xpressCfg() Config {
	cfg := DefaultConfig()
	cfg.Generation = GenXpress
	return cfg
}

func TestXpressGenerationForwarding(t *testing.T) {
	// The next-generation deposit path (NIC masters the memory bus; no
	// EISA) delivers the same bytes, faster.
	r := newRig(t, xpressCfg())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	r.cpuWrite32(0, phys.PageNum(4).Addr(16), 0xabad1dea)
	start := r.eng.Now()
	r.drain()
	if got := r.mem[1].Read32(phys.PageNum(8).Addr(16)); got != 0xabad1dea {
		t.Fatalf("xpress deposit %#x", got)
	}
	xpressTime := r.eng.Now() - start

	r2 := newRig(t, DefaultConfig())
	r2.mapOut(4, 8, nipt.SingleWriteAU)
	r2.cpuWrite32(0, phys.PageNum(4).Addr(16), 0xabad1dea)
	start = r2.eng.Now()
	r2.drain()
	eisaTime := r2.eng.Now() - start
	if xpressTime >= eisaTime {
		t.Fatalf("xpress (%v) not faster than EISA (%v)", xpressTime, eisaTime)
	}
}

func TestXpressDeliberateUpdate(t *testing.T) {
	r := newRig(t, xpressCfg())
	r.mapOut(4, 8, nipt.DeliberateUpdate)
	for i := 0; i < 128; i++ {
		r.mem[0].Write32(phys.PageNum(4).Addr(uint32(4*i)), uint32(i*3))
	}
	cmd := r.mem[0].CmdPageFor(4)
	if _, swapped, _ := r.xbus[0].LockedCmpxchg(bus.InitCPU, cmd, 0, 128); !swapped {
		t.Fatal("start rejected")
	}
	r.drain()
	for i := 0; i < 128; i++ {
		if got := r.mem[1].Read32(phys.PageNum(8).Addr(uint32(4 * i))); got != uint32(i*3) {
			t.Fatalf("word %d = %d", i, got)
		}
	}
	// The Xpress deposit is a bridge-visible bus write: caches snooped it.
	if r.xbus[1].Stats().Writes == 0 {
		t.Fatal("no memory-bus deposits recorded")
	}
}

func TestSnoopStatsAndQuiesce(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.BlockedWriteAU)
	for i := 0; i < 10; i++ {
		r.cpuWrite32(0, phys.PageNum(4).Addr(uint32(4*i)), 1)
	}
	if r.nics[0].Quiesced() {
		t.Fatal("NIC quiescent with an open merge")
	}
	r.drain()
	if !r.nics[0].Quiesced() || !r.nics[1].Quiesced() {
		t.Fatal("NICs not quiescent after drain")
	}
	if r.nics[0].Stats().SnoopedWrites != 10 {
		t.Fatalf("snooped %d", r.nics[0].Stats().SnoopedWrites)
	}
}
