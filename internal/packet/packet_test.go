package packet

import "testing"

func TestCoordHops(t *testing.T) {
	if (Coord{0, 0}).Hops(Coord{3, 2}) != 5 {
		t.Fatal("hops")
	}
	if (Coord{3, 2}).Hops(Coord{0, 0}) != 5 {
		t.Fatal("hops symmetric")
	}
	if (Coord{1, 1}).Hops(Coord{1, 1}) != 0 {
		t.Fatal("self hops")
	}
}

// TestWireSize pins the bytes timing charges for each packet: an
// 11-byte header, the payload and a 4-byte CRC, plus a 5-byte reliable
// header when Rel is set.
func TestWireSize(t *testing.T) {
	for _, c := range []struct {
		p    Packet
		want int
	}{
		{Packet{}, 15},
		{Packet{Payload: make([]byte, 20)}, 35},
		{Packet{Payload: make([]byte, 20), Rel: RelData, Seq: 7}, 40},
		{Packet{Rel: RelAck, Seq: 3}, 20},
	} {
		if got := c.p.WireSize(); got != c.want {
			t.Errorf("%d-byte payload, Rel %d: wire size %d, want %d", len(c.p.Payload), c.p.Rel, got, c.want)
		}
	}
}

// TestPool checks a machine's packet free list: a packet put back comes
// out of the next Get zeroed, with its payload's capacity kept; the
// list holds at most poolCap packets, the rest going to the shared
// pool; and an empty list still hands out zeroed packets.
func TestPool(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Payload = append(p.Payload, 1, 2, 3)
	p.Seq, p.Corrupt = 9, true
	pl.Put(p)
	if q := pl.Get(); q != p || q.Seq != 0 || q.Corrupt || len(q.Payload) != 0 || cap(q.Payload) < 3 {
		t.Fatalf("recycled packet %p (put %p): %+v, payload cap %d", q, p, *q, cap(q.Payload))
	}
	for i := 0; i < poolCap+10; i++ {
		pl.Put(&Packet{Seq: uint32(i)})
	}
	if len(pl.free) != poolCap {
		t.Fatalf("free list holds %d packets, cap %d", len(pl.free), poolCap)
	}
	for i := 0; i < poolCap+10; i++ {
		if q := pl.Get(); q.Seq != 0 || len(q.Payload) != 0 {
			t.Fatalf("Get %d: %+v, want a zeroed packet", i, *q)
		}
	}
}

// TestPoolRelease: Release empties the free list and keeps no pointer to
// a released packet in the list's backing array.
func TestPoolRelease(t *testing.T) {
	var pl Pool
	for i := 0; i < 5; i++ {
		pl.Put(&Packet{Seq: uint32(i)})
	}
	backing := pl.free[:cap(pl.free)]
	pl.Release()
	if len(pl.free) != 0 {
		t.Fatalf("free list holds %d packets after Release", len(pl.free))
	}
	for i, p := range backing {
		if p != nil {
			t.Fatalf("backing slot %d still points at a released packet", i)
		}
	}
	if q := pl.Get(); q.Seq != 0 || len(q.Payload) != 0 {
		t.Fatalf("Get after Release: %+v, want a zeroed packet", *q)
	}
}
