package msg

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nic"
	"repro/internal/sim"
)

func newMachine(t *testing.T) *core.Machine {
	t.Helper()
	return core.New(core.ConfigFor(2, 2, nic.GenEISAPrototype))
}

// Channel round trips over three link sets: one pair across a 2x2
// mesh, and two workloads on the 16-node prototype. In "neighbors" every
// node sends east, wrapping within its row. In the 15-to-1 hotspot every
// other node streams into node 0, and the worms contend for its links,
// NIC and memory bus.
func TestChannelRoundTrips(t *testing.T) {
	var neighbors, hotspot [][2]int
	for i := 0; i < 16; i++ {
		neighbors = append(neighbors, [2]int{i, i/4*4 + (i+1)%4})
		if i > 0 {
			hotspot = append(hotspot, [2]int{i, 0})
		}
	}
	for _, tc := range []struct {
		name   string
		w, h   int
		links  [][2]int
		rounds int
		extra  int // patterned bytes appended to each message
	}{
		{"pair", 2, 2, [][2]int{{0, 3}}, 10, 0},
		{"neighbors", 4, 4, neighbors, 4, 2048},
		{"hotspot-15-to-1", 4, 4, hotspot, 4, 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := core.New(core.ConfigFor(tc.w, tc.h, nic.GenEISAPrototype))
			eps := make([]Endpoint, tc.w*tc.h)
			for i := range eps {
				eps[i] = NewEndpoint(m.Node(i))
			}
			chans := make([]*Channel, len(tc.links))
			for i, l := range tc.links {
				var err error
				if chans[i], err = NewChannel(m, eps[l[0]], eps[l[1]], 1); err != nil {
					t.Fatal(err)
				}
			}
			want := make([][]byte, len(chans))
			for r := 0; r < tc.rounds; r++ {
				for i, ch := range chans {
					want[i] = []byte(fmt.Sprintf("message %d on link %d with some body", r, i))
					// The pattern differs per round and link, so a lost
					// packet cannot pass for the previous round's bytes.
					for j := 0; j < tc.extra; j++ {
						want[i] = append(want[i], byte(r*31+i*7+j))
					}
					if err := ch.Send(want[i]); err != nil {
						t.Fatalf("round %d link %d send: %v", r, i, err)
					}
				}
				for i, ch := range chans {
					got, err := ch.Recv()
					if err != nil {
						t.Fatalf("round %d link %d recv: %v", r, i, err)
					}
					if !bytes.Equal(got, want[i]) {
						t.Fatalf("round %d link %d corrupted: %q != %q", r, i, got, want[i])
					}
				}
			}
		})
	}
}

func TestChannelRejectsOversize(t *testing.T) {
	m := newMachine(t)
	ch, err := NewChannel(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(make([]byte, 5000)); err == nil {
		t.Fatal("oversize send succeeded")
	}
	if err := ch.Send(nil); err == nil {
		t.Fatal("empty send succeeded")
	}
}

func TestDoubleChannelOrderAndContent(t *testing.T) {
	m := newMachine(t)
	ch, err := NewDoubleChannel(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline two sends before the first receive: double buffering
	// permits exactly one message in flight per buffer.
	a := []byte("first message in buffer zero")
	b := []byte("second message in buffer one")
	if err := ch.Send(a); err != nil {
		t.Fatal(err)
	}
	if err := ch.Send(b); err != nil {
		t.Fatal(err)
	}
	g1, err := ch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g1, a) || !bytes.Equal(g2, b) {
		t.Fatalf("order/content violated: %q, %q", g1, g2)
	}
	// Many iterations to exercise the toggling.
	for i := 0; i < 20; i++ {
		want := []byte(fmt.Sprintf("iteration %02d", i))
		if err := ch.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d corrupted", i)
		}
	}
}

// crashCfg is a 2x2 EISA machine under a Survivable fault plan that
// crashes node 2 at the given time.
func crashCfg(at sim.Time) core.Config {
	cfg := core.ConfigFor(2, 2, nic.GenEISAPrototype)
	cfg.Faults = fault.Config{
		Seed: 1, Reliable: true, Survivable: true,
		Heartbeat:   200 * sim.Microsecond,
		RetryBudget: 6, AckTimeout: 10 * sim.Microsecond,
		Nodes: [2]fault.NodeFault{{Node: 2, Kind: fault.NodeCrash, At: at}},
	}
	return cfg
}

// A DoubleChannel whose far end crashes must surface fault.ErrPeerDown
// once the survivor has declared it dead, on both the sending and the
// receiving side, not a deadlock after the queues drain.
func TestDoubleChannelReportsPeerDown(t *testing.T) {
	m := core.New(crashCfg(400 * sim.Microsecond))
	ch, err := NewDoubleChannel(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(2)), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both buffers fill; the third send waits for a consumer that dies.
	for i := 0; i < 2; i++ {
		if err := ch.Send([]byte("to a doomed consumer")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := ch.Send([]byte("never consumed")); !errors.Is(err, fault.ErrPeerDown) {
		t.Fatalf("third send: got %v, want fault.ErrPeerDown", err)
	}
	if !m.Node(0).K.PeerIsDown(2) {
		t.Fatal("node 0 never declared node 2 down")
	}

	m = core.New(crashCfg(400 * sim.Microsecond))
	ch, err = NewDoubleChannel(m, NewEndpoint(m.Node(2)), NewEndpoint(m.Node(0)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Recv(); !errors.Is(err, fault.ErrPeerDown) {
		t.Fatalf("recv from a crashed producer: got %v, want fault.ErrPeerDown", err)
	}
}

func TestBlockSenderMultiPage(t *testing.T) {
	m := newMachine(t)
	bs, err := NewBlockSender(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)), 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 3*4096)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := bs.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	// Send a region that starts mid-page and crosses two boundaries.
	if err := bs.Send(100, 8000); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !bs.Done() {
		t.Fatal("DMA still busy after drain")
	}
	got, err := bs.Read(100, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[100:8100]) {
		t.Fatal("block transfer corrupted data")
	}
	// Bytes outside the sent region must be untouched.
	outside, _ := bs.Read(0, 100)
	for _, v := range outside {
		if v != 0 {
			t.Fatal("bytes outside the sent region were written")
		}
	}
}

func TestChannelBothGenerations(t *testing.T) {
	for _, gen := range []nic.Generation{nic.GenEISAPrototype, nic.GenXpress} {
		m := core.New(core.ConfigFor(2, 1, gen))
		ch, err := NewChannel(m, NewEndpoint(m.Node(0)), NewEndpoint(m.Node(1)), 1)
		if err != nil {
			t.Fatalf("%v: %v", gen, err)
		}
		want := []byte("generation-independent payload")
		if err := ch.Send(want); err != nil {
			t.Fatalf("%v: %v", gen, err)
		}
		got, err := ch.Recv()
		if err != nil {
			t.Fatalf("%v: %v", gen, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v corrupted", gen)
		}
	}
}
