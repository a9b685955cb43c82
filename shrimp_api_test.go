package shrimp_test

import (
	"bytes"
	"fmt"
	"testing"

	shrimp "repro"
)

// These tests exercise the public facade the way a downstream user
// would: only identifiers exported by package shrimp.

func TestPublicQuickstartFlow(t *testing.T) {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
	snd := shrimp.NewEndpoint(m.Node(0))
	rcv := shrimp.NewEndpoint(m.Node(1))
	ch, err := shrimp.NewChannel(m, snd, rcv, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		want := []byte(fmt.Sprintf("public api message %d", i))
		if err := ch.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d corrupted", i)
		}
	}
}

func TestPublicRawMappingFlow(t *testing.T) {
	// The paper's primitive interface: map() + raw stores.
	m := shrimp.New(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype))
	src, dst := m.Node(0), m.Node(15)
	ps := src.K.CreateProcess()
	pd := dst.K.CreateProcess()
	sendVA, err := ps.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	recvVA, err := pd.AllocPages(2)
	if err != nil {
		t.Fatal(err)
	}
	_, fut := src.K.Map(ps, sendVA, 2*shrimp.PageSize, dst.ID, pd.PID, recvVA, shrimp.BlockedWriteAU)
	if err := m.Await(fut); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 6000)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := src.UserWriteBytes(ps, sendVA, payload); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := dst.UserReadBytes(pd, recvVA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-machine copy corrupted")
	}
}

func TestPublicBlockSender(t *testing.T) {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenXpress))
	bs, err := shrimp.NewBlockSender(m,
		shrimp.NewEndpoint(m.Node(0)), shrimp.NewEndpoint(m.Node(1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(255 - i%256)
	}
	if err := bs.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	if err := bs.Send(0, len(data)); err != nil {
		t.Fatal(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !bs.Done() {
		t.Fatal("DMA busy after drain")
	}
	got, err := bs.Read(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("block transfer corrupted")
	}
}

func TestPublicExperimentsAgreeWithPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	rows := shrimp.MeasureTable1(shrimp.GenEISAPrototype)
	if len(rows) != 7 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Source != r.PaperSource || r.Dest != r.PaperDest {
			t.Errorf("%s: measured %d+%d, paper %d+%d",
				r.Name, r.Source, r.Dest, r.PaperSource, r.PaperDest)
		}
	}
	lat := shrimp.MaxLatency(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype))
	if lat.Latency >= 2*shrimp.Microsecond {
		t.Errorf("EISA latency %v >= 2us", lat.Latency)
	}
	lat = shrimp.MaxLatency(shrimp.ConfigFor(4, 4, shrimp.GenXpress))
	if lat.Latency >= shrimp.Microsecond {
		t.Errorf("Xpress latency %v >= 1us", lat.Latency)
	}
	bw := shrimp.MeasureDeliberateBandwidth(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), 0, 1, 4096, 128*1024)
	if bw.MBps > 33 {
		t.Errorf("EISA bandwidth %.1f exceeds the 33 MB/s bus rating", bw.MBps)
	}
	if bw.MBps < 25 {
		t.Errorf("EISA bandwidth %.1f too far below the 33 MB/s bottleneck", bw.MBps)
	}
}

func TestPublicAssembler(t *testing.T) {
	p, err := shrimp.Assemble("pub", `
main:
	mov	eax, X
	add	eax, 2
	hlt
`, map[string]int64{"X": 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 3 {
		t.Fatal("assembled length")
	}
}

// The barrier is the collective the message library offers.
func TestPublicCollectivesAndSharedRegion(t *testing.T) {
	m := shrimp.New(shrimp.ConfigFor(2, 2, shrimp.GenEISAPrototype))
	parts := []shrimp.Endpoint{
		shrimp.NewEndpoint(m.Node(0)), shrimp.NewEndpoint(m.Node(1)),
		shrimp.NewEndpoint(m.Node(2)), shrimp.NewEndpoint(m.Node(3)),
	}
	bar, err := shrimp.NewBarrier(m, parts)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint32(1); round <= 2; round++ {
		if err := bar.Sync(); err != nil {
			t.Fatal(err)
		}
		if bar.Generation() != round {
			t.Fatalf("round %d: generation %d", round, bar.Generation())
		}
	}
}

func TestPublicNXPort(t *testing.T) {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenXpress))
	pa, pb, err := shrimp.OpenNXPair(m,
		shrimp.NewEndpoint(m.Node(0)), shrimp.NewEndpoint(m.Node(1)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Csend(4, []byte("over the public api")); err != nil {
		t.Fatal(err)
	}
	typ, got, err := pb.CrecvAny(128)
	if err != nil {
		t.Fatal(err)
	}
	if typ != 4 || string(got) != "over the public api" {
		t.Fatalf("%d %q", typ, got)
	}
}
