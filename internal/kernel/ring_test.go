package kernel_test

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/vm"
)

// TestRingWrapsUnderManyRPCs drives enough map/unmap round trips that
// every kernel ring wraps several times, exercising wrap records,
// sequence tracking and the credit protocol.
func TestRingWrapsUnderManyRPCs(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	recvVA, _ := pb.AllocPages(1)

	for i := 0; i < 300; i++ {
		mp := m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, recvVA, nipt.SingleWriteAU)
		// Traffic through the fresh mapping each round.
		if err := a.UserWrite32(pa, sendVA, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
		m.RunUntilIdle(5_000_000)
		if v, _ := b.UserRead32(pb, recvVA); v != uint32(i+1) {
			t.Fatalf("round %d: %d", i, v)
		}
		if err := m.Await(a.K.Unmap(mp)); err != nil {
			t.Fatalf("round %d unmap: %v", i, err)
		}
	}
	// 300 maps + 300 unmaps, each two records, far beyond one 4 KB ring.
	sa := a.K.Stats()
	if sa.RingRecordsSent < 600 {
		t.Fatalf("sent only %d ring records", sa.RingRecordsSent)
	}
	if sa.Maps != 300 || sa.Unmaps != 300 {
		t.Fatalf("map/unmap counts %+v", sa)
	}
}

// TestRingsAcrossAllPairs makes every node pair talk, verifying the
// boot wiring of N*(N-1) rings on a 3x3 machine.
func TestRingsAcrossAllPairs(t *testing.T) {
	m := core.New(core.ConfigFor(3, 3, nic.GenEISAPrototype))
	n := len(m.Nodes)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			ps := m.Node(s).K.CreateProcess()
			pd := m.Node(d).K.CreateProcess()
			sv, err := ps.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			dv, err := pd.AllocPages(1)
			if err != nil {
				t.Fatal(err)
			}
			m.MustMap(ps, sv, phys.PageSize, m.Node(d).ID, pd.PID, dv, nipt.SingleWriteAU)
			want := uint32(1000*s + d)
			if err := m.Node(s).UserWrite32(ps, sv, want); err != nil {
				t.Fatal(err)
			}
			m.RunUntilIdle(10_000_000)
			if v, _ := m.Node(d).UserRead32(pd, dv); v != want {
				t.Fatalf("pair %d->%d: %d", s, d, v)
			}
		}
	}
}

// TestRingStateBuiltOnFirstUse: boot installs every ring's NIPT entries
// but no kernel's ring state. One map() from node 0 to node 5 builds it
// on those two nodes only, each for the other. The audit still exempts
// every ring page, used or not.
func TestRingStateBuiltOnFirstUse(t *testing.T) {
	m := core.New(core.ConfigFor(4, 4, nic.GenEISAPrototype))
	src, dst := m.Node(0), m.Node(5)
	ps, pd := src.K.CreateProcess(), dst.K.CreateProcess()
	sendVA, _ := ps.AllocPages(1)
	recvVA, _ := pd.AllocPages(1)
	m.MustMap(ps, sendVA, phys.PageSize, dst.ID, pd.PID, recvVA, nipt.SingleWriteAU)
	if err := src.UserWrite32(ps, sendVA, 42); err != nil {
		t.Fatal(err)
	}
	m.RunUntilIdle(10_000_000)
	if v, _ := dst.UserRead32(pd, recvVA); v != 42 {
		t.Fatalf("mapped store delivered %d, want 42", v)
	}
	for _, n := range m.Nodes {
		var want []packet.NodeID
		switch n.ID {
		case src.ID:
			want = []packet.NodeID{dst.ID}
		case dst.ID:
			want = []packet.NodeID{src.ID}
		}
		if got := n.K.Peers(); !slices.Equal(got, want) {
			t.Errorf("node %d holds ring state for %v, want %v", n.ID, got, want)
		}
		if err := n.K.CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestHeartbeatBuildsPeersInOrder: one Survivable-mode heartbeat builds
// ring state for every peer and pings each once, in ascending node order.
func TestHeartbeatBuildsPeersInOrder(t *testing.T) {
	cfg := core.ConfigFor(4, 4, nic.GenXpress)
	cfg.Metrics = true
	cfg.Faults = fault.Config{Seed: 1, Reliable: true, Survivable: true}
	m := core.New(cfg)
	k := m.Node(5).K
	k.Heartbeat()
	var want []packet.NodeID
	for id := packet.NodeID(0); int(id) < len(m.Nodes); id++ {
		if id != k.ID() {
			want = append(want, id)
		}
	}
	if got := k.Peers(); !slices.Equal(got, want) {
		t.Fatalf("heartbeat built ring state for %v, want %v", got, want)
	}
	if got := k.Stats().PingsSent; got != uint64(len(want)) {
		t.Fatalf("heartbeat sent %d pings, want %d", got, len(want))
	}
	if err := m.RunUntilIdle(10_000_000); err != nil {
		t.Fatal(err)
	}
	// Each ping leaves as a few packets to its peer; the packets leave
	// in ping order. Spans complete in arrival order, so order this
	// node's by when each entered the backplane.
	var sent []obs.Span
	for _, s := range m.Obs.CompletedSpans() {
		if s.Src == int(k.ID()) {
			sent = append(sent, s)
		}
	}
	slices.SortStableFunc(sent, func(a, b obs.Span) int { return cmp.Compare(a.Injected, b.Injected) })
	var order []packet.NodeID
	for _, s := range sent {
		if id := packet.NodeID(s.Dst); len(order) == 0 || order[len(order)-1] != id {
			order = append(order, id)
		}
	}
	if !slices.Equal(order, want) {
		t.Fatalf("pings left for %v, want %v", order, want)
	}
	for _, n := range m.Nodes {
		if n.ID != k.ID() && n.K.Stats().RingRecordsRcvd != 1 {
			t.Errorf("node %d received %d ring records, want the one ping", n.ID, n.K.Stats().RingRecordsRcvd)
		}
	}
}

// TestConcurrentBidirectionalMaps issues map() calls in both directions
// at once; the kernels serve each other's requests while waiting for
// their own responses (no control-plane deadlock).
func TestConcurrentBidirectionalMaps(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	aBuf, _ := pa.AllocPages(1)
	bBuf, _ := pb.AllocPages(1)
	aIn, _ := pa.AllocPages(1)
	bIn, _ := pb.AllocPages(1)

	_, futAB := a.K.Map(pa, aBuf, phys.PageSize, b.ID, pb.PID, bIn, nipt.SingleWriteAU)
	_, futBA := b.K.Map(pb, bBuf, phys.PageSize, a.ID, pa.PID, aIn, nipt.SingleWriteAU)
	m.RunUntilIdle(20_000_000)
	if !futAB.Done() || !futBA.Done() {
		t.Fatal("concurrent maps did not complete")
	}
	if futAB.Err() != nil || futBA.Err() != nil {
		t.Fatalf("errors: %v %v", futAB.Err(), futBA.Err())
	}
	// Both directions carry data.
	if err := a.UserWrite32(pa, aBuf, 11); err != nil {
		t.Fatal(err)
	}
	if err := b.UserWrite32(pb, bBuf, 22); err != nil {
		t.Fatal(err)
	}
	m.RunUntilIdle(10_000_000)
	if v, _ := b.UserRead32(pb, bIn); v != 11 {
		t.Fatalf("a->b: %d", v)
	}
	if v, _ := a.UserRead32(pa, aIn); v != 22 {
		t.Fatalf("b->a: %d", v)
	}
}

// TestSplitPageMappingThroughKernel maps with different page offsets on
// the two sides, forcing §3.2 split NIPT entries, and verifies bytes
// land at the exact linear addresses.
func TestSplitPageMappingThroughKernel(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	a, b := m.Node(0), m.Node(1)
	pa := a.K.CreateProcess()
	pb := b.K.CreateProcess()
	sendVA, _ := pa.AllocPages(1) // page aligned
	recvVA, _ := pb.AllocPages(2) // target starts at offset 512

	target := recvVA + 512
	m.MustMap(pa, sendVA, phys.PageSize, b.ID, pb.PID, target, nipt.SingleWriteAU)

	// Probe both halves of the local page.
	for _, off := range []vm.VAddr{0, 1024, phys.PageSize - 512, phys.PageSize - 4} {
		want := uint32(0xc0de0000) | uint32(off)
		if err := a.UserWrite32(pa, sendVA+off, want); err != nil {
			t.Fatal(err)
		}
		m.RunUntilIdle(10_000_000)
		if v, _ := b.UserRead32(pb, target+off); v != want {
			t.Fatalf("offset %d: got %#x want %#x", off, v, want)
		}
	}
}

// TestTwoMappingsShareASplitPage maps a page's high half, then its low
// half, as two mappings to different nodes: the second keeps the first's
// half. Unmapping both in turn leaves the page split until the last
// half goes, then unsplit with no outgoing mapping.
func TestTwoMappingsShareASplitPage(t *testing.T) {
	m := core.New(core.ConfigFor(3, 1, nic.GenEISAPrototype))
	a, b, c := m.Node(0), m.Node(1), m.Node(2)
	pa, pb, pc := a.K.CreateProcess(), b.K.CreateProcess(), c.K.CreateProcess()
	page, _ := pa.AllocPages(1)
	rb, _ := pb.AllocPages(1)
	rc, _ := pc.AllocPages(1)
	const half = phys.PageSize / 2
	hi := m.MustMap(pa, page+half, half, b.ID, pb.PID, rb+half, nipt.SingleWriteAU)
	lo := m.MustMap(pa, page, half, c.ID, pc.PID, rc, nipt.SingleWriteAU)
	for _, w := range []struct {
		off  vm.VAddr
		node *core.Node
		proc *kernel.Process
		recv vm.VAddr
	}{{half + 4, b, pb, rb + half + 4}, {4, c, pc, rc + 4}} {
		if err := a.UserWrite32(pa, page+w.off, uint32(w.off)); err != nil {
			t.Fatal(err)
		}
		m.RunUntilIdle(10_000_000)
		if v, _ := w.node.UserRead32(w.proc, w.recv); v != uint32(w.off) {
			t.Fatalf("store at offset %d delivered %d", w.off, v)
		}
	}
	frame, _ := pa.FrameOf(page)
	table := a.NIC.Table()
	for i, mp := range []*kernel.Mapping{hi, lo} {
		if err := m.Await(a.K.Unmap(mp)); err != nil {
			t.Fatal(err)
		}
		split, mapped := table.Entry(frame).Split(), table.MappedOut(frame)
		if last := i == 1; (split == 0) != last || mapped == last {
			t.Fatalf("after unmap %d: split %d, mapped out %v", i, split, mapped)
		}
		if err := a.K.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommandPageGrantAndRevoke covers §4.2's grant/revoke lifecycle.
func TestCommandPageGrantAndRevoke(t *testing.T) {
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
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
	// The command page is usable...
	tr, f := pa.AS.Translate(sendVA+cmdDelta, false)
	if f != nil || !tr.Command {
		t.Fatalf("command translation: %+v %v", tr, f)
	}
	// ...until revoked.
	a.K.RevokeCommandPages(pa, sendVA+cmdDelta, 1)
	if _, f := pa.AS.Translate(sendVA+cmdDelta, false); f == nil {
		t.Fatal("revoked command page still mapped")
	}
	// Misaligned grants are rejected.
	if err := a.K.GrantCommandPages(pa, sendVA+4, sendVA+cmdDelta, 1); err == nil {
		t.Fatal("misaligned grant accepted")
	}
	// Grants for pages the process does not own are rejected.
	if err := a.K.GrantCommandPages(pa, 0x7000_0000, 0x7800_0000, 1); err == nil {
		t.Fatal("grant for foreign page accepted")
	}
}

// TestMapRejectsOverlap: a second mapping over the same local bytes must
// fail (one outgoing mapping per page region).
func TestMapRejectsOverlap(t *testing.T) {
	m := core.New(core.ConfigFor(3, 1, nic.GenEISAPrototype))
	a := m.Node(0)
	pa := a.K.CreateProcess()
	pb := m.Node(1).K.CreateProcess()
	pc := m.Node(2).K.CreateProcess()
	sendVA, _ := pa.AllocPages(1)
	r1, _ := pb.AllocPages(1)
	r2, _ := pc.AllocPages(1)

	m.MustMap(pa, sendVA, phys.PageSize, m.Node(1).ID, pb.PID, r1, nipt.SingleWriteAU)
	_, fut := a.K.Map(pa, sendVA, phys.PageSize, m.Node(2).ID, pc.PID, r2, nipt.SingleWriteAU)
	if err := m.Await(fut); err == nil {
		t.Fatal("overlapping outgoing mapping accepted")
	}
}
