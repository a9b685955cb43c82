package shrimp_test

// The benchmark harness regenerates every quantitative result in the
// paper's evaluation (§5) plus the ablations called out in DESIGN.md.
// The interesting outputs are the custom metrics (instructions,
// simulated microseconds, MB/s) — wall-clock ns/op only measures the
// simulator itself.
//
//	go test -bench=. -benchmem
//
// Experiment index:
//
//	BenchmarkTable1/*          E1  Table 1 instruction counts
//	BenchmarkLatency/*         E2  §5.1 latency (<2 us EISA, <1 us next-gen)
//	BenchmarkBandwidth/*       E3  §5.1 peak bandwidth (33 / ~70 MB/s)
//	BenchmarkNX2Baseline       E4  §5.2 kernel-mediated comparison (~3.2x)
//	BenchmarkAblationAU/*      A1  single-write vs blocked-write update
//	BenchmarkAblationFlowCtl   A2  FIFO thresholds under saturation
//	BenchmarkAblationPaging/*  A3  pin vs invalidate replacement cost
//	BenchmarkKernelRingRPC     kernel control-plane round trip

import (
	"fmt"
	"testing"

	shrimp "repro"
	"repro/internal/msg"
)

func BenchmarkTable1(b *testing.B) {
	cases := []struct {
		name string
		row  int
	}{
		{"SingleBuffering", 0},
		{"SingleBufferingCopy", 1},
		{"DoubleBufferingCase1", 2},
		{"DoubleBufferingCase2", 3},
		{"DoubleBufferingCase3", 4},
		{"DeliberateUpdate", 5},
		{"CsendCrecv", 6},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var row shrimp.Overhead
			for i := 0; i < b.N; i++ {
				row = shrimp.MeasureTable1(shrimp.GenEISAPrototype)[c.row]
			}
			b.ReportMetric(float64(row.Total()), "instrs")
			b.ReportMetric(float64(row.Source), "src-instrs")
			b.ReportMetric(float64(row.Dest), "dst-instrs")
			b.ReportMetric(float64(row.PaperTotal()), "paper-instrs")
		})
	}
}

func BenchmarkLatency(b *testing.B) {
	for _, g := range []struct {
		name string
		gen  shrimp.Generation
	}{{"EISA", shrimp.GenEISAPrototype}, {"Xpress", shrimp.GenXpress}} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			var r shrimp.LatencyResult
			for i := 0; i < b.N; i++ {
				r = shrimp.MaxLatency(shrimp.ConfigFor(4, 4, g.gen))
			}
			b.ReportMetric(r.Latency.Microseconds(), "sim-us")
			b.ReportMetric(float64(r.Hops), "hops")
		})
	}
}

func BenchmarkBandwidth(b *testing.B) {
	const total = 256 * 1024
	for _, g := range []struct {
		name string
		gen  shrimp.Generation
	}{{"EISA", shrimp.GenEISAPrototype}, {"Xpress", shrimp.GenXpress}} {
		for _, size := range []int{256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", g.name, size), func(b *testing.B) {
				b.ReportAllocs()
				var r shrimp.BandwidthResult
				for i := 0; i < b.N; i++ {
					r = shrimp.MeasureDeliberateBandwidth(
						shrimp.ConfigFor(2, 1, g.gen), 0, 1, size, total)
				}
				b.ReportMetric(r.MBps, "sim-MB/s")
			})
		}
	}
}

func BenchmarkNX2Baseline(b *testing.B) {
	b.ReportAllocs()
	var c shrimp.BaselineComparison
	for i := 0; i < b.N; i++ {
		c = shrimp.MeasureBaseline(shrimp.GenEISAPrototype)
	}
	b.ReportMetric(float64(c.Shrimp.Total()), "shrimp-instrs")
	b.ReportMetric(float64(c.BaseCsend.User+c.BaseCsend.Kernel), "base-csend-instrs")
	b.ReportMetric(float64(c.BaseCrecv.User+c.BaseCrecv.Kernel), "base-crecv-instrs")
	b.ReportMetric(c.Ratio(), "overhead-ratio")
}

func BenchmarkAblationAU(b *testing.B) {
	for _, m := range []struct {
		name string
		mode shrimp.Mode
	}{{"SingleWrite", shrimp.SingleWriteAU}, {"BlockedWrite", shrimp.BlockedWriteAU}} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var r shrimp.AUBandwidthResult
			for i := 0; i < b.N; i++ {
				r = shrimp.MeasureAUBandwidth(
					shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), m.mode, 2000)
			}
			b.ReportMetric(r.MBps, "sim-MB/s")
			b.ReportMetric(r.PktPerStore, "pkts/store")
			b.ReportMetric(float64(r.WireBytes)/float64(4*r.Stores), "wire-amplification")
		})
	}
}

// BenchmarkAblationFlowCtl saturates a receiver (slow EISA deposit) from
// a fast deliberate-update sender and reports how the §4 thresholds
// behave: outgoing-FIFO stall events and peak FIFO occupancies. The
// invariant — no FIFO ever overflows — is enforced by panics inside the
// model.
func BenchmarkAblationFlowCtl(b *testing.B) {
	b.ReportAllocs()
	var stalls, maxOut, maxIn float64
	for i := 0; i < b.N; i++ {
		stalls, maxOut, maxIn = flowStats()
	}
	b.ReportMetric(stalls, "out-stall-events")
	b.ReportMetric(maxOut, "max-outfifo-bytes")
	b.ReportMetric(maxIn, "max-infifo-bytes")
}

// flowStats drives a saturating stream on a machine we keep hold of, so
// the FIFO statistics are observable.
func flowStats() (stalls, maxOut, maxIn float64) {
	m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
	snd := shrimp.NewEndpoint(m.Node(0))
	rcv := shrimp.NewEndpoint(m.Node(1))
	bs, err := shrimp.NewBlockSender(m, snd, rcv, 4)
	if err != nil {
		panic(err)
	}
	payload := make([]byte, 4*shrimp.PageSize)
	if err := bs.Write(0, payload); err != nil {
		panic(err)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		panic(err)
	}
	for i := 0; i < 64; i++ {
		if err := bs.Send(0, 4*shrimp.PageSize); err != nil {
			panic(err)
		}
	}
	if err := m.RunUntilIdle(500_000_000); err != nil {
		panic(err)
	}
	s0 := m.Node(0).NIC.Stats()
	s1 := m.Node(1).NIC.Stats()
	return float64(s0.OutFullEvents), float64(s0.MaxOutFIFOBytes), float64(s1.MaxInFIFOBytes)
}

func BenchmarkAblationPaging(b *testing.B) {
	for _, p := range []struct {
		name   string
		policy shrimp.PagingPolicy
	}{{"Pin", shrimp.PinPages}, {"Invalidate", shrimp.InvalidateProtocol}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var evictUS float64
			var refused, served float64
			for i := 0; i < b.N; i++ {
				evictUS, refused, served = pagingCost(p.policy)
			}
			b.ReportMetric(evictUS, "evict-sim-us")
			b.ReportMetric(refused, "refused")
			b.ReportMetric(served, "invalidations")
		})
	}
}

// pagingCost maps three senders into one receive page and measures the
// simulated time to evict it (Pin refuses; Invalidate pays one
// shootdown round per importer).
func pagingCost(policy shrimp.PagingPolicy) (evictUS, refused, served float64) {
	cfg := shrimp.ConfigFor(2, 2, shrimp.GenEISAPrototype)
	cfg.Kernel.Policy = policy
	m := shrimp.New(cfg)
	rcv := m.Node(3)
	pr := rcv.K.CreateProcess()
	recvVA, err := pr.AllocPages(1)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 3; i++ {
		node := m.Node(i)
		ps := node.K.CreateProcess()
		sendVA, err := ps.AllocPages(1)
		if err != nil {
			panic(err)
		}
		m.MustMap(ps, sendVA, shrimp.PageSize, rcv.ID, pr.PID, recvVA, shrimp.SingleWriteAU)
	}
	if err := m.RunUntilIdle(50_000_000); err != nil {
		panic(err)
	}
	start := m.Eng.Now()
	fut := rcv.K.EvictPage(pr, recvVA.Page())
	err = m.Await(fut)
	elapsed := m.Eng.Now() - start
	if policy == shrimp.PinPages {
		if err == nil {
			panic("pin policy should refuse")
		}
		refused = 1
	} else if err != nil {
		panic(err)
	}
	var inv uint64
	for i := 0; i < 3; i++ {
		inv += m.Node(i).K.Stats().InvalidatesServed
	}
	return elapsed.Microseconds(), refused, float64(inv)
}

// BenchmarkAblationOverlap measures the §4.1 claim: CPU-visible
// overhead of streaming results through an AU mapping while computing.
func BenchmarkAblationOverlap(b *testing.B) {
	b.ReportAllocs()
	var r shrimp.OverlapResult
	for i := 0; i < b.N; i++ {
		r = shrimp.MeasureOverlap(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype),
			shrimp.BlockedWriteAU, 400)
	}
	b.ReportMetric(r.OverheadPct, "cpu-overhead-%")
	b.ReportMetric(float64(r.BytesMoved), "bytes-in-background")
}

// BenchmarkAblationMergeWindow sweeps the blocked-write time limit.
func BenchmarkAblationMergeWindow(b *testing.B) {
	for _, w := range []shrimp.Time{20 * shrimp.Nanosecond, 500 * shrimp.Nanosecond} {
		b.Run(w.String(), func(b *testing.B) {
			b.ReportAllocs()
			var r shrimp.MergeWindowResult
			for i := 0; i < b.N; i++ {
				r = shrimp.MeasureMergeWindow(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype),
					w, 100*shrimp.Nanosecond, 256)
			}
			b.ReportMetric(r.PktPerStore, "pkts/store")
		})
	}
}

// BenchmarkKernelRingRPC measures the map() control-plane round trip:
// the full kernel-to-kernel handshake over the boot rings.
func BenchmarkKernelRingRPC(b *testing.B) {
	b.ReportAllocs()
	var us float64
	for i := 0; i < b.N; i++ {
		m := shrimp.New(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype))
		ps := m.Node(0).K.CreateProcess()
		pd := m.Node(1).K.CreateProcess()
		sendVA, _ := ps.AllocPages(1)
		recvVA, _ := pd.AllocPages(1)
		start := m.Eng.Now()
		m.MustMap(ps, sendVA, shrimp.PageSize, m.Node(1).ID, pd.PID, recvVA, shrimp.SingleWriteAU)
		us = (m.Eng.Now() - start).Microseconds()
	}
	b.ReportMetric(us, "map-sim-us")
}

// BenchmarkMeshWorkload measures machine-wide delivered bandwidth for
// the shrimp-sim traffic patterns on the 16-node prototype.
func BenchmarkMeshWorkload(b *testing.B) {
	for _, p := range []struct{ name, pattern string }{{"Neighbors", "neighbors"}, {"Hotspot", "hotspot"}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			wl, err := msg.ParseMeshWorkload("4x4", "eisa", p.pattern, 2048, 4)
			if err != nil {
				b.Fatal(err)
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				m := shrimp.New(shrimp.ConfigFor(wl.W, wl.H, wl.Gen))
				run, err := wl.Run(m)
				if err != nil {
					b.Fatal(err)
				}
				mbps = float64(wl.Rounds*run.Links*wl.Bytes) / 1e6 / (m.Now() - run.Start).Seconds()
			}
			b.ReportMetric(mbps, "machine-MB/s")
		})
	}
}
