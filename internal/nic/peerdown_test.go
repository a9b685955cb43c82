package nic

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
)

// peerDownRig arms the two-node rig with a reliable-delivery injector
// and a kernel-ring page so node 0's sends are retained (AU traffic is
// detection-tagged only; only retained traffic drives the RTO machinery
// and the failure detector).
func peerDownRig(t testing.TB, fc fault.Config) *rig {
	r := newRig(t, DefaultConfig())
	inj := fault.NewInjector(fc, 2)
	r.nics[0].SetFaults(inj)
	r.nics[1].SetFaults(inj)
	r.net.SetFaults(inj)
	r.nics[0].Table().Entry(4).KernelRing = true
	r.mapOut(4, 8, nipt.SingleWriteAU)
	return r
}

// TestSetDeadReleasesReliableState pins the SetDead half of the §4.4
// teardown: a sender mid-retry against a silent peer holds retained
// payloads and a pending RTO event; when the sender itself crashes,
// quarantineAll must free the retained state and disarm the timer so
// the already-scheduled event fires as a no-op and the engine drains to
// a zero pending count instead of churning a backoff chain into the
// bit-bucket.
func TestSetDeadReleasesReliableState(t *testing.T) {
	// A huge retry budget keeps the partial drain below from ever
	// exhausting it (exhaustion would raise a machine check).
	r := peerDownRig(t, fault.Config{
		Seed: 11, Reliable: true,
		RetryBudget: 1 << 20, AckTimeout: 10 * sim.Microsecond,
	})
	r.nics[1].SetDead() // peer silent from the start: no ACK ever comes
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 0xdeadbeef)
	// Run into the retry chain, but nowhere near the budget: the
	// bounded drain stops mid-backoff with the RTO event still pending.
	if err := r.eng.DrainBudget(500); !errors.Is(err, sim.ErrBudget) {
		t.Fatalf("expected a truncated drain mid-retry, got %v", err)
	}

	flow := entry(r.nics[0].rel.flows, 1)
	if flow == nil || len(flow.unacked) == 0 || !flow.armed {
		t.Fatalf("sender flow not mid-retry before crash: %+v", flow)
	}
	if r.nics[0].Stats().RelRetransmits == 0 {
		t.Fatal("RTO chain never fired before crash")
	}
	if r.eng.Pending() == 0 {
		t.Fatal("no pending RTO event before crash")
	}

	r.nics[0].SetDead()
	if len(flow.unacked) != 0 || flow.armed {
		t.Fatalf("SetDead left retained state: %d unacked, armed=%v",
			len(flow.unacked), flow.armed)
	}
	r.drain()
	if got := r.eng.Pending(); got != 0 {
		t.Fatalf("engine still holds %d pending events after both nodes dead", got)
	}
	if err := r.eng.Failed(); err != nil {
		t.Fatalf("machine check after crash: %v", err)
	}
}

// TestDeclarePeerDownSuppressesEmit drives the Survivable failure
// detector end to end at the NIC level: the retry budget exhausts
// against a dead peer, the declaration fires the membership hook once,
// quarantines the flow, and every later packet toward the peer is
// suppressed at emit with the drop accounted.
func TestDeclarePeerDownSuppressesEmit(t *testing.T) {
	r := peerDownRig(t, fault.Config{
		Seed: 3, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
	})
	var hooks []*fault.PeerDown
	r.nics[0].OnPeerDown = func(pd *fault.PeerDown) { hooks = append(hooks, pd) }
	r.nics[1].SetDead()
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 0xcafe0001)
	r.drain()

	if err := r.eng.Failed(); err != nil {
		t.Fatalf("Survivable exhaustion raised a machine check: %v", err)
	}
	dst := packet.Coord{X: 1, Y: 0}
	if !r.nics[0].PeerDeclaredDown(dst) {
		t.Fatal("peer never declared down")
	}
	if len(hooks) != 1 || hooks[0].Node != 1 || hooks[0].Cause == "" {
		t.Fatalf("membership hook fired %d times, last %+v", len(hooks), hooks)
	}
	s := r.nics[0].Stats()
	if s.PeerDowns != 1 || s.RelRetransmits == 0 {
		t.Fatalf("detector stats: %d peer-downs, %d retransmits", s.PeerDowns, s.RelRetransmits)
	}
	if flow := entry(r.nics[0].rel.flows, r.nics[0].rel.node(dst)); flow != nil && (len(flow.unacked) != 0 || flow.armed) {
		t.Fatalf("declaration left retained state: %+v", flow)
	}

	// Re-declaring is idempotent; the hook must not fire again.
	r.nics[0].declarePeerDown(1, dst, "again")
	if got := r.nics[0].Stats().PeerDowns; got != 1 || len(hooks) != 1 {
		t.Fatalf("re-declaration not idempotent: %d peer-downs, %d hooks", got, len(hooks))
	}

	// A store through the surviving (rig-level) mapping now dies at
	// emit: no packet out, one accounted suppression.
	outBefore := r.nics[0].Stats().PacketsOut
	r.cpuWrite32(0, phys.PageNum(4).Addr(8), 0xcafe0002)
	r.drain()
	s = r.nics[0].Stats()
	if s.PeerDownDrops == 0 {
		t.Fatal("post-declaration store was not suppressed")
	}
	if s.PacketsOut != outBefore {
		t.Fatalf("suppressed store still emitted a packet: %d -> %d", outBefore, s.PacketsOut)
	}
	if got := r.eng.Pending(); got != 0 {
		t.Fatalf("engine holds %d pending events after suppression", got)
	}
}

// BenchmarkStorePeerDown is the ci.sh zero-allocation guard for the
// degraded-mode hot path: once a peer is declared dead, a snooped store
// toward it must be suppressed at emit without touching the heap (one
// map probe, counters, a trace record — no pooled packet, no FIFO
// entry).
func BenchmarkStorePeerDown(b *testing.B) {
	r := peerDownRig(b, fault.Config{
		Seed: 42, Reliable: true, Survivable: true,
		RetryBudget: 4, AckTimeout: 10 * sim.Microsecond,
	})
	r.nics[0].declarePeerDown(1, packet.Coord{X: 1, Y: 0}, "bench")
	// Warm the snoop path and the span table before measuring.
	r.cpuWrite32(0, phys.PageNum(4).Addr(0), 1)
	r.drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.cpuWrite32(0, phys.PageNum(4).Addr(0), uint32(i))
		r.drain()
	}
	if r.nics[0].Stats().PeerDownDrops == 0 {
		b.Fatal("benchmark never hit the suppression path")
	}
}
