package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/phys"
	"repro/internal/vm"
)

// drain runs the machine dry with a generous livelock guard, failing
// the test on a machine check or a blown budget.
func drain(t *testing.T, m *Machine) {
	t.Helper()
	if err := m.RunUntilIdle(5_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestBootAndMapSingleWrite(t *testing.T) {
	m := New(ConfigFor(2, 2, nic.GenEISAPrototype))
	sender := m.Node(0)
	receiver := m.Node(3)

	ps := sender.K.CreateProcess()
	pr := receiver.K.CreateProcess()
	sendVA, err := ps.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}
	recvVA, err := pr.AllocPages(1)
	if err != nil {
		t.Fatal(err)
	}

	m.MustMap(ps, sendVA, phys.PageSize, receiver.ID, pr.PID, recvVA, nipt.SingleWriteAU)

	if err := sender.UserWrite32(ps, sendVA+8, 0xdeadbeef); err != nil {
		t.Fatalf("store: %v", err)
	}
	drain(t, m)

	got, err := receiver.UserRead32(pr, recvVA+8)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got != 0xdeadbeef {
		t.Fatalf("remote memory = %#x, want 0xdeadbeef", got)
	}
	if s := sender.NIC.Stats(); s.PacketsOut == 0 {
		t.Fatalf("sender NIC emitted no packets: %+v", s)
	}
	if s := receiver.NIC.Stats(); s.DropNotMappedIn != 0 || s.DropWrongDest != 0 {
		t.Fatalf("receiver dropped packets: %+v", s)
	}
}

func TestMapValidation(t *testing.T) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)

	// Unknown destination process.
	_, fut := a.K.Map(pa, sendVA, phys.PageSize, b.ID, 999, recvVA, nipt.SingleWriteAU)
	if err := m.Await(fut); err == nil {
		t.Fatal("map to unknown pid succeeded")
	}
	// Unmapped send buffer.
	_, fut = a.K.Map(pa, sendVA+0x100000, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)
	if err := m.Await(fut); err == nil {
		t.Fatal("map of unmapped send buffer succeeded")
	}
	// Unmapped receive buffer.
	_, fut = a.K.Map(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA+0x100000, nipt.SingleWriteAU)
	if err := m.Await(fut); err == nil {
		t.Fatal("map to unmapped receive buffer succeeded")
	}
	// Sub-page interior mapping (both ends of the page unmapped).
	_, fut = a.K.Map(pa, sendVA+8, 16, b.ID, pb.PID, recvVA+8, nipt.SingleWriteAU)
	if err := m.Await(fut); err == nil {
		t.Fatal("interior sub-page mapping succeeded; hardware cannot express it")
	}
	// A good map still works afterward.
	mp := m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)
	if mp == nil {
		t.Fatal("mapping handle nil")
	}
}

func TestProtectionIsolation(t *testing.T) {
	// Two processes on the same pair of nodes, disjoint mappings
	// (Figure 3): traffic for one never lands in the other.
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)

	p1 := a.K.CreateProcess()
	q1 := b.K.CreateProcess()
	p2 := a.K.CreateProcess()
	q2 := b.K.CreateProcess()

	s1, _ := p1.AllocPages(1)
	r1, _ := q1.AllocPages(1)
	s2, _ := p2.AllocPages(1)
	r2, _ := q2.AllocPages(1)

	m.MustMap(p1, s1, phys.PageSize, b.ID, q1.PID, r1, nipt.SingleWriteAU)
	m.MustMap(p2, s2, phys.PageSize, b.ID, q2.PID, r2, nipt.SingleWriteAU)

	if err := a.UserWrite32(p1, s1, 111); err != nil {
		t.Fatal(err)
	}
	if err := a.UserWrite32(p2, s2, 222); err != nil {
		t.Fatal(err)
	}
	drain(t, m)

	v1, _ := b.UserRead32(q1, r1)
	v2, _ := b.UserRead32(q2, r2)
	if v1 != 111 || v2 != 222 {
		t.Fatalf("got %d/%d, want 111/222", v1, v2)
	}
	// q2's buffer must not contain q1's value anywhere and vice versa —
	// trivially true here since each buffer got exactly its own word,
	// but also check an unwritten offset stayed zero.
	if v, _ := b.UserRead32(q1, r1+4); v != 0 {
		t.Fatalf("cross-talk into q1: %#x", v)
	}
}

func TestUnmapStopsTraffic(t *testing.T) {
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)

	mp := m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)
	if err := a.UserWrite32(pa, sendVA, 1); err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if v, _ := b.UserRead32(pb, recvVA); v != 1 {
		t.Fatalf("pre-unmap transfer failed: %d", v)
	}

	if err := m.Await(a.K.Unmap(mp)); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	sb := a.NIC.Stats()
	before := sb.PacketsOut - sb.KernelPacketsOut
	if err := a.UserWrite32(pa, sendVA, 2); err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if sa := a.NIC.Stats(); sa.PacketsOut-sa.KernelPacketsOut != before {
		t.Fatalf("store after unmap emitted %d user packet(s)",
			sa.PacketsOut-sa.KernelPacketsOut-before)
	}
	if v, _ := b.UserRead32(pb, recvVA); v != 1 {
		t.Fatalf("remote memory changed after unmap: %d", v)
	}
	// The receive frame is no longer mapped in.
	frame, _ := pb.FrameOf(recvVA)
	if b.NIC.Table().Entry(frame).MappedIn {
		t.Fatal("receive frame still marked mapped in after unmap")
	}
}

func TestContextSwitchNeedsNoNICAction(t *testing.T) {
	// A store lands correctly even if the receiver kernel context
	// switches between processes while the packet is in flight: the
	// mapping is physical-to-physical (Figure 3).
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	other := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	if _, err := other.AllocPages(1); err != nil {
		t.Fatal(err)
	}
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)

	b.K.BindProcess(other) // receiver node is "running" a different process
	if err := a.UserWrite32(pa, sendVA+64, 42); err != nil {
		t.Fatal(err)
	}
	drain(t, m)
	if v, _ := b.UserRead32(pb, recvVA+64); v != 42 {
		t.Fatalf("delivery under context switch failed: %d", v)
	}
}

func TestDeliberateUpdateGoLevel(t *testing.T) {
	// Drive the §4.3 command protocol from Go: map a page deliberate,
	// write data (no packets), then issue the DMA command via a locked
	// CMPXCHG on the command page.
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.DeliberateUpdate)

	const cmdDelta = 0x4000_0000
	if err := a.K.GrantCommandPages(pa, sendVA, sendVA+cmdDelta, 1); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 64; i++ {
		if err := a.UserWrite32(pa, sendVA+vm.VAddr(4*i), uint32(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, m)
	if s := a.NIC.Stats(); s.PacketsOut != s.KernelPacketsOut {
		t.Fatalf("deliberate-update page emitted %d user packets before send",
			s.PacketsOut-s.KernelPacketsOut)
	}

	// LOCK CMPXCHG: expect 0 (engine free), write word count 64.
	tr, f := pa.AS.Translate(sendVA+cmdDelta, true)
	if f != nil {
		t.Fatal(f)
	}
	read, swapped, _ := a.Cache.LockedCmpxchg(tr.PA, 0, 64)
	if !swapped {
		t.Fatalf("DMA start rejected, engine returned %#x", read)
	}
	drain(t, m)

	for i := 0; i < 64; i++ {
		v, _ := b.UserRead32(pb, recvVA+vm.VAddr(4*i))
		if v != uint32(1000+i) {
			t.Fatalf("word %d = %d, want %d", i, v, 1000+i)
		}
	}
	if a.NIC.DMABusy() {
		t.Fatal("DMA engine still busy after drain")
	}
	// Status read returns 0 when complete.
	if v, _ := a.Cache.Load(tr.PA, 4); v != 0 {
		t.Fatalf("status read = %#x, want 0", v)
	}
}

func TestConfigValidation(t *testing.T) {
	good := ConfigFor(2, 2, nic.GenEISAPrototype)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	largest := good
	largest.MemPagesPerNode = phys.MaxPages
	if err := largest.Validate(); err != nil {
		t.Fatalf("largest memory rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero mesh", func(c *Config) { c.MeshWidth = 0 }},
		{"mesh disagreement", func(c *Config) { c.Mesh.Width = 7 }},
		{"too few pages", func(c *Config) { c.MemPagesPerNode = 4 }},
		// Command space [size, 2·size) wraps the 32-bit PAddr: at 2^19
		// pages no command page is reachable, at 2^20 the size is 0.
		{"command space wraps", func(c *Config) { c.MemPagesPerNode = 1 << 19 }},
		{"memory size wraps", func(c *Config) { c.MemPagesPerNode = 1 << 20 }},
		{"payload over page", func(c *Config) { c.NIC.MaxPayload = phys.PageSize + 1 }},
		{"out threshold at capacity", func(c *Config) { c.NIC.OutThreshold = c.NIC.OutFIFOBytes }},
		{"no out headroom", func(c *Config) { c.NIC.OutThreshold = c.NIC.OutFIFOBytes - 1 }},
		{"no in headroom", func(c *Config) { c.NIC.InThreshold = c.NIC.InFIFOBytes - 1 }},
		{"cache sets not pow2", func(c *Config) { c.Cache.Sets = 3 }},
		// A 1-byte line drops the bytes of a word split over more than
		// two lines; an 8 KB line spans pages and survives FlushPage.
		{"cache line under a word", func(c *Config) { c.Cache.LineBytes = 1 }},
		{"cache line over a page", func(c *Config) { c.Cache.LineBytes = 2 * phys.PageSize }},
		{"zero cpu clock", func(c *Config) { c.CPU.CycleTime = 0 }},
		{"zero flit", func(c *Config) { c.Mesh.FlitBytes = 0 }},
		{"negative span capacity", func(c *Config) { c.SpanCapacity = -5 }},
	}
	for _, m := range mutations {
		cfg := ConfigFor(2, 2, nic.GenEISAPrototype)
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	// New panics on invalid configs.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted an invalid config")
			}
		}()
		bad := ConfigFor(2, 2, nic.GenEISAPrototype)
		bad.MemPagesPerNode = 3
		New(bad)
	}()
}

func TestFaultInjectionCRCDrops(t *testing.T) {
	// Damage a fifth of the packets in flight: the receiving NIC's
	// verification drops them; clean packets still land; memory never
	// sees corrupt data.
	m := New(ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)
	drain(t, m)
	// Damage only user traffic: the kernel control plane (like the real
	// backplane) assumes error-free delivery, so the injector is attached
	// to the mesh only once the map is done.
	m.Net.SetFaults(fault.NewInjector(fault.Config{Seed: 5, CorruptPPM: 200_000}, 2))

	delivered := 0
	for i := 1; i <= 40; i++ {
		if err := a.UserWrite32(pa, sendVA+vm.VAddr(4*(i-1)), uint32(i)); err != nil {
			t.Fatal(err)
		}
		drain(t, m)
		if v, _ := b.UserRead32(pb, recvVA+vm.VAddr(4*(i-1))); v == uint32(i) {
			delivered++
		} else if v != 0 {
			t.Fatalf("corrupt data deposited: word %d = %d", i, v)
		}
	}
	s := b.NIC.Stats()
	if s.DropCRC == 0 {
		t.Fatal("no CRC drops under fault injection")
	}
	if delivered == 0 || delivered == 40 {
		t.Fatalf("delivered %d/40; expected partial delivery", delivered)
	}
	if uint64(delivered)+s.DropCRC < 40 {
		t.Fatalf("conservation: %d delivered + %d dropped < 40", delivered, s.DropCRC)
	}
}
