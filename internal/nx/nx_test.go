package nx

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/nic"
)

func pair(t *testing.T, pages int) (*core.Machine, *Port, *Port) {
	t.Helper()
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	a := msg.NewEndpoint(m.Node(0))
	b := msg.NewEndpoint(m.Node(1))
	pa, pb, err := OpenPair(m, a, b, pages)
	if err != nil {
		t.Fatal(err)
	}
	return m, pa, pb
}

func TestCsendCrecvRoundTrip(t *testing.T) {
	_, pa, pb := pair(t, 1)
	want := []byte("typed message over the port")
	if err := pa.Csend(7, want); err != nil {
		t.Fatal(err)
	}
	got, err := pb.Crecv(7, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%q", got)
	}
	// And the reverse direction.
	if err := pb.Csend(9, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	got, err = pa.Crecv(9, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "reply" {
		t.Fatal("reverse direction")
	}
}

func TestTypedFIFODispatch(t *testing.T) {
	// Messages of different types interleave; receives by type see FIFO
	// order within the type regardless of arrival interleaving.
	_, pa, pb := pair(t, 1)
	for i := 0; i < 4; i++ {
		if err := pa.Csend(1, []byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := pa.Csend(2, []byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Drain type 2 first.
	for i := 0; i < 4; i++ {
		got, err := pb.Crecv(2, 64)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("b%d", i) {
			t.Fatalf("type 2 order: %q at %d", got, i)
		}
	}
	// Type 1 messages were buffered and stay ordered.
	for i := 0; i < 4; i++ {
		got, err := pb.Crecv(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("a%d", i) {
			t.Fatalf("type 1 order: %q at %d", got, i)
		}
	}
}

func TestCrecvAnyAndProbe(t *testing.T) {
	m, pa, pb := pair(t, 1)
	if ok, _ := pb.Cprobe(AnyType); ok {
		t.Fatal("probe on empty port")
	}
	if err := pa.Csend(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if ok, _ := pb.Cprobe(5); !ok {
		t.Fatal("probe missed an arrival")
	}
	if ok, _ := pb.Cprobe(6); ok {
		t.Fatal("probe matched the wrong type")
	}
	typ, got, err := pb.CrecvAny(64)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 5 || string(got) != "x" {
		t.Fatalf("any: %d %q", typ, got)
	}
	if pb.PendingCount() != 0 {
		t.Fatal("pending count")
	}
}

func TestAsyncSendReceive(t *testing.T) {
	m, pa, pb := pair(t, 1)
	// Post the receive before the send arrives.
	rh, err := pb.Irecv(3)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := pb.Msgdone(rh); done {
		t.Fatal("receive completed before any send")
	}
	sh, err := pa.Isend(3, []byte("async payload"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Msgwait(sh); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(20_000_000); err != nil {
		t.Fatal(err)
	}
	if done, _ := pb.Msgdone(rh); !done {
		t.Fatal("receive not completed after delivery")
	}
	got, err := pb.Msgwait(rh)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "async payload" {
		t.Fatalf("%q", got)
	}
}

func TestManyIsendsDrainInOrder(t *testing.T) {
	// More Isends than the ring holds: the backlog drains as the
	// receiver consumes, preserving order.
	_, pa, pb := pair(t, 1)
	const count = 24
	payload := make([]byte, 300)
	var handles []int
	for i := 0; i < count; i++ {
		payload[0] = byte(i)
		h, err := pa.Isend(4, payload)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i := 0; i < count; i++ {
		got, err := pb.Crecv(4, 512)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("order: %d at %d", got[0], i)
		}
	}
	for _, h := range handles {
		if _, err := pa.Msgwait(h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRingWrapsUnderLongStream(t *testing.T) {
	_, pa, pb := pair(t, 1)
	payload := make([]byte, 900)
	for round := 0; round < 30; round++ {
		for i := range payload {
			payload[i] = byte(round*31 + i)
		}
		if err := pa.Csend(8, payload); err != nil {
			t.Fatal(err)
		}
		got, err := pb.Crecv(8, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round %d corrupted", round)
		}
	}
}

func TestValidation(t *testing.T) {
	_, pa, _ := pair(t, 1)
	if err := pa.Csend(AnyType, []byte("x")); err == nil {
		t.Fatal("reserved type accepted")
	}
	if err := pa.Csend(1, nil); err == nil {
		t.Fatal("empty message accepted")
	}
	if err := pa.Csend(1, make([]byte, MaxMessage+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
	if _, _, err := OpenPair(nil, msg.Endpoint{}, msg.Endpoint{}, 0); err == nil {
		t.Fatal("zero-page port accepted")
	}
}

func TestBigMessageSmallBuffer(t *testing.T) {
	_, pa, pb := pair(t, 2)
	if err := pa.Csend(2, make([]byte, 2000)); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Crecv(2, 100); err == nil {
		t.Fatal("oversized delivery into a small buffer accepted")
	}
}

func TestRandomTypedTrafficAgainstModel(t *testing.T) {
	// Differential stress: random interleaving of typed sends and
	// receives on both sides, checked against per-type FIFO model
	// queues.
	_, pa, pb := pair(t, 2)
	rng := rand.New(rand.NewSource(99))
	type side struct {
		port *Port
		// what the OTHER side has sent to us, per type
		model map[uint16][][]byte
	}
	A := &side{port: pa, model: map[uint16][][]byte{}}
	B := &side{port: pb, model: map[uint16][][]byte{}}
	peerOf := map[*side]*side{A: B, B: A}

	for step := 0; step < 300; step++ {
		s := A
		if rng.Intn(2) == 0 {
			s = B
		}
		typ := uint16(1 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			// Send a random message to the peer.
			data := make([]byte, 1+rng.Intn(120))
			rng.Read(data)
			if err := s.port.Csend(typ, data); err != nil {
				t.Fatal(err)
			}
			peer := peerOf[s]
			peer.model[typ] = append(peer.model[typ], append([]byte(nil), data...))
		} else {
			// Receive if the model says something is (or will be) there.
			if len(s.model[typ]) == 0 {
				ok, err := s.port.Cprobe(typ)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Fatalf("step %d: probe found a message the model does not know", step)
				}
				continue
			}
			got, err := s.port.Crecv(typ, 256)
			if err != nil {
				t.Fatal(err)
			}
			want := s.model[typ][0]
			s.model[typ] = s.model[typ][1:]
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d type %d: %q != %q", step, typ, got, want)
			}
		}
	}
	// Drain everything left.
	for _, s := range []*side{A, B} {
		for typ, q := range s.model {
			for _, want := range q {
				got, err := s.port.Crecv(typ, 256)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("drain type %d: %q != %q", typ, got, want)
				}
			}
		}
	}
	if pa.PendingCount() != 0 || pb.PendingCount() != 0 {
		t.Fatal("stray pending messages after drain")
	}
}

func TestClose(t *testing.T) {
	_, pa, pb := pair(t, 1)
	// Queue an async send, then close: Close drains it first.
	if _, err := pa.Isend(2, []byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pa.Csend(2, []byte("x")); err == nil {
		t.Fatal("send on closed port accepted")
	}
	if _, err := pa.Crecv(2, 64); err == nil {
		t.Fatal("recv on closed port accepted")
	}
	// The peer still gets the drained message.
	got, err := pb.Crecv(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "last words" {
		t.Fatalf("%q", got)
	}
	// Double close is fine.
	if err := pa.Close(); err != nil {
		t.Fatal(err)
	}
}
