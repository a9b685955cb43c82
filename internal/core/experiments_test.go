package core

import (
	"testing"

	"repro/internal/nic"
	"repro/internal/nipt"
	"repro/internal/sim"
)

func TestLatencyUnder2usEISA(t *testing.T) {
	r := MaxLatency(New(ConfigFor(4, 4, nic.GenEISAPrototype)))
	t.Logf("EISA prototype corner-to-corner (%d hops): %v", r.Hops, r.Latency)
	if r.Latency >= 2*sim.Microsecond {
		t.Errorf("latency %v, paper says slightly less than 2us", r.Latency)
	}
	if r.Latency < sim.Microsecond {
		t.Errorf("latency %v suspiciously low for the EISA prototype", r.Latency)
	}
}

func TestLatencyUnder1usXpress(t *testing.T) {
	r := MaxLatency(New(ConfigFor(4, 4, nic.GenXpress)))
	t.Logf("next-gen corner-to-corner (%d hops): %v", r.Hops, r.Latency)
	if r.Latency >= sim.Microsecond {
		t.Errorf("latency %v, paper says less than 1us for the next generation", r.Latency)
	}
}

func TestBandwidthPlateaus(t *testing.T) {
	e := MeasureDeliberateBandwidth(New(ConfigFor(2, 1, nic.GenEISAPrototype)), 0, 1, 4096, 512*1024)
	t.Logf("EISA page transfers: %s", e)
	if e.MBps < 28 || e.MBps > 33 {
		t.Errorf("EISA peak %v MB/s, paper bottleneck is 33 MB/s", e.MBps)
	}
	x := MeasureDeliberateBandwidth(New(ConfigFor(2, 1, nic.GenXpress)), 0, 1, 4096, 512*1024)
	t.Logf("Xpress page transfers: %s", x)
	if x.MBps < 60 || x.MBps > 70 {
		t.Errorf("next-gen peak %v MB/s, paper predicts about 70 MB/s", x.MBps)
	}
}

func TestAUAblation(t *testing.T) {
	single := MeasureAUBandwidth(New(ConfigFor(2, 1, nic.GenEISAPrototype)), nipt.SingleWriteAU, 2000)
	blocked := MeasureAUBandwidth(New(ConfigFor(2, 1, nic.GenEISAPrototype)), nipt.BlockedWriteAU, 2000)
	t.Logf("%s", single)
	t.Logf("%s", blocked)
	if blocked.MBps <= single.MBps {
		t.Error("blocked-write should beat single-write for bulk stores")
	}
	if blocked.PktPerStore >= single.PktPerStore {
		t.Error("blocked-write should emit fewer packets per store")
	}
}

func TestOverlapClaim(t *testing.T) {
	// §4.1: automatic update overlaps communication with computation —
	// the CPU sees (nearly) only the write-through latency.
	r := MeasureOverlap(New(ConfigFor(2, 1, nic.GenEISAPrototype)), nipt.BlockedWriteAU, 400)
	t.Logf("overlap: %s", r)
	// 1600 payload bytes plus a little kernel-ring traffic (the map
	// handshake) also lands on the destination NIC.
	if r.BytesMoved < 1600 || r.BytesMoved > 1800 {
		t.Fatalf("delivered %d bytes, want ~1600", r.BytesMoved)
	}
	if r.OverheadPct > 25 {
		t.Fatalf("CPU-visible overhead %.1f%% — communication is not overlapped", r.OverheadPct)
	}
}

func TestMergeWindowSweep(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	gap := 100 * sim.Nanosecond
	cfg.NIC.MergeWindow = 20 * sim.Nanosecond
	narrow := MeasureMergeWindow(New(cfg), gap, 256)
	cfg.NIC.MergeWindow = 2 * sim.Microsecond
	wide := MeasureMergeWindow(New(cfg), gap, 256)
	t.Logf("window 20ns: %.3f pkts/store; window 2us: %.3f pkts/store",
		narrow.PktPerStore, wide.PktPerStore)
	if narrow.PktPerStore < 0.9 {
		t.Fatal("a window shorter than the store gap should not merge")
	}
	if wide.PktPerStore > 0.2 {
		t.Fatal("a wide window should merge most stores")
	}
}

func TestLatencyLinearInHops(t *testing.T) {
	// §5.1: propagation latency grows by a constant per hop (router +
	// link); the deposit leg is hop-independent.
	cfg := ConfigFor(4, 1, nic.GenEISAPrototype)
	l1 := MeasureStoreLatency(New(cfg), 0, 1).Latency
	l2 := MeasureStoreLatency(New(cfg), 0, 2).Latency
	l3 := MeasureStoreLatency(New(cfg), 0, 3).Latency
	d1, d2 := l2-l1, l3-l2
	if d1 != d2 {
		t.Fatalf("per-hop deltas differ: %v vs %v", d1, d2)
	}
	if d1 <= 0 {
		t.Fatal("latency not increasing with distance")
	}
}

// TestTransferSizeValidation: the deliberate-update harnesses accept
// only sizes they can honour. A command moves whole words within one
// page, so a transfer size that is not a positive multiple of 4 within
// a page would be truncated (6 B transfers carry one word but were
// credited 6 B), and a total below one transfer runs nothing and
// reports NaN MB/s. Both harnesses panic on such input; valid sizes
// report exactly what they always did.
func TestTransferSizeValidation(t *testing.T) {
	cfg := ConfigFor(2, 1, nic.GenEISAPrototype)
	for _, tc := range []struct {
		name            string
		transfer, total int
	}{
		{"zero", 0, 4096},
		{"negative", -4, 4096},
		{"6B", 6, 60_000},
		{"1022B", 1022, 512 * 1024},
		{"over-a-page", 4100, 64 * 1024},
		{"total-below-one-transfer", 4096, 100},
	} {
		for harness, run := range map[string]func(){
			"bandwidth": func() { MeasureDeliberateBandwidth(New(cfg), 0, 1, tc.transfer, tc.total) },
			"faulty":    func() { MeasureFaultyTransfer(New(cfg), 0, 1, tc.transfer, tc.total) },
		} {
			t.Run(harness+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%d B transfers over %d B ran; want a panic", tc.transfer, tc.total)
					}
				}()
				run()
			})
		}
	}

	// 1,024 B transfers over 64 KB, pinned at the values measured before
	// the harnesses validated their input.
	bw := MeasureDeliberateBandwidth(New(cfg), 0, 1, 1024, 64*1024)
	if want := (BandwidthResult{TransferBytes: 1024, TotalBytes: 65536, Elapsed: 2144019456,
		Packets: 128, MBps: 30.56688679601236, Events: 1069, SimEnd: 2234601430}); bw != want {
		t.Errorf("bandwidth moved:\n got  %+v\n want %+v", bw, want)
	}
	fp := MeasureFaultyTransfer(New(cfg), 0, 1, 1024, 64*1024)
	if want := (FaultPoint{TransferBytes: 1024, GoodBytes: 65536, Elapsed: 2144019456,
		GoodputMBps: 30.56688679601236, Events: 1069}); fp != want {
		t.Errorf("faulty transfer moved:\n got  %+v\n want %+v", fp, want)
	}
}
