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
