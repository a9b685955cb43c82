package nic

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/nipt"
	"repro/internal/packet"
	"repro/internal/phys"
)

// TestOutFIFOOverflowMachineCheck overflows the Outgoing FIFO on
// purpose (enqueueing without ever running the engine, so nothing
// drains) and checks the NIC raises a structured machine check through
// the engine's failure surface instead of panicking the process.
func TestOutFIFOOverflowMachineCheck(t *testing.T) {
	r := newRig(t, DefaultConfig())
	n := r.nics[0]
	for i := 0; i < 200 && r.eng.Failed() == nil; i++ {
		p := packet.Get()
		p.Src = n.Coord()
		p.Dst = packet.Coord{X: 1, Y: 0}
		p.Payload = append(p.Payload, make([]byte, 512)...)
		n.enqueueOut(p, p.WireSize())
	}
	err := r.eng.Failed()
	var mc *fault.MachineCheck
	if !errors.As(err, &mc) {
		t.Fatalf("overflow did not raise a machine check: %v", err)
	}
	if mc.Kind != fault.CheckOutFIFOOverflow || mc.Node != 0 {
		t.Fatalf("wrong machine check: %+v", mc)
	}
	if n.OutFIFOBytes() > n.Config().OutFIFOBytes {
		t.Fatalf("FIFO accounting exceeded capacity: %d", n.OutFIFOBytes())
	}
}

// TestInFIFOHeadroomMachineCheck shrinks the incoming FIFO headroom
// below one packet and checks the endpoint refuses the worm with a
// machine check rather than panicking.
func TestInFIFOHeadroomMachineCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InFIFOBytes = 600
	cfg.InThreshold = 590 // headroom of 10 bytes cannot hold a full packet
	r := newRig(t, cfg)
	r.mapOut(4, 8, nipt.SingleWriteAU)
	p := packet.Get()
	p.Src = packet.Coord{X: 0, Y: 0}
	p.Dst = packet.Coord{X: 1, Y: 0}
	p.DstAddr = phys.PageNum(8).Addr(0)
	p.Payload = append(p.Payload, make([]byte, 600)...) // wire 615 > capacity 600
	r.net.Inject(p.Src, p, p.WireSize())
	r.eng.DrainBudget(1_000_000)
	var mc *fault.MachineCheck
	if !errors.As(r.eng.Failed(), &mc) || mc.Kind != fault.CheckInFIFOHeadroom {
		t.Fatalf("want headroom machine check, got %v", r.eng.Failed())
	}
}

// TestDeadNodeBitBuckets crashes node 1 and checks arriving packets are
// discarded without FIFO accounting — the worm still drains (the mesh
// cannot deadlock) but nothing is deposited.
func TestDeadNodeBitBuckets(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.mapOut(4, 8, nipt.SingleWriteAU)
	r.nics[1].SetDead()
	r.cpuWrite32(0, phys.PageNum(4).Addr(12), 0xfeedface)
	r.drain()
	if got := r.mem[1].Read32(phys.PageNum(8).Addr(12)); got != 0 {
		t.Fatalf("dead node deposited data: %#x", got)
	}
	s := r.nics[1].Stats()
	if s.DropDead != 1 || s.PacketsIn != 0 {
		t.Fatalf("dead-node stats %+v", s)
	}
	if r.nics[1].InFIFOBytes() != 0 {
		t.Fatalf("dead node accounted FIFO bytes: %d", r.nics[1].InFIFOBytes())
	}
	if !r.nics[1].Quiesced() {
		t.Fatal("dead node not quiesced")
	}
}
