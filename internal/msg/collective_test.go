package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nic"
)

func endpointsOn(m *core.Machine, nodes ...int) []Endpoint {
	out := make([]Endpoint, len(nodes))
	for i, n := range nodes {
		out[i] = NewEndpoint(m.Node(n))
	}
	return out
}

func TestBarrierRounds(t *testing.T) {
	m := core.New(core.ConfigFor(2, 2, nic.GenEISAPrototype))
	b, err := NewBarrier(m, endpointsOn(m, 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 10; round++ {
		if err := b.Sync(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if b.Generation() != uint32(round) {
			t.Fatalf("generation %d", b.Generation())
		}
	}
}

func TestBarrierOrdersWork(t *testing.T) {
	// A value written before the barrier on one node is visible after
	// the barrier on another, when sent through a mapping: the barrier
	// provides the synchronization double-buffering case 1 assumes.
	m := core.New(core.ConfigFor(2, 1, nic.GenEISAPrototype))
	parts := endpointsOn(m, 0, 1)
	b, err := NewBarrier(m, parts)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(m, parts[0], parts[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("pre-barrier payload")); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := ch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "pre-barrier payload" {
		t.Fatal("payload lost across barrier")
	}
}

func TestBarrierNeedsTwo(t *testing.T) {
	m := core.New(core.ConfigFor(1, 1, nic.GenXpress))
	if _, err := NewBarrier(m, endpointsOn(m, 0)); err == nil {
		t.Fatal("single-participant barrier accepted")
	}
}
