// shrimp-report runs the complete evaluation — every table and figure of
// the paper plus the ablations — and emits a markdown report of paper
// versus measured, suitable for diffing against EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	shrimp "repro"
	"repro/internal/isa"
	"repro/internal/msg"
	"repro/internal/obs"
)

func main() {
	total := flag.Int("total", 256*1024, "bytes streamed per bandwidth point")
	parallel := flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()
	workers := *parallel
	sizes := []int{64, 256, 1024, 4096}
	if largest := sizes[len(sizes)-1]; *total < largest {
		fatal("shrimp-report: bad -total %d; want at least the largest transfer size, %d", *total, largest)
	}
	if workers < 0 {
		fatal("shrimp-report: bad -parallel %d; want 0 (GOMAXPROCS), 1 (sequential) or more", workers)
	}

	fmt.Println("# SHRIMP reproduction report (generated by cmd/shrimp-report)")

	fmt.Println("\n## E1 — Table 1 (instructions)")
	fmt.Println()
	fmt.Println("| primitive | measured | paper |")
	fmt.Println("|---|---|---|")
	for _, r := range shrimp.MeasureTable1(shrimp.GenEISAPrototype) {
		fmt.Printf("| %s | %d (%d+%d) | %d (%d+%d) |\n",
			r.Name, r.Total(), r.Source, r.Dest, r.PaperTotal(), r.PaperSource, r.PaperDest)
	}

	fmt.Println("\n## E2 — §5.1 latency (16 nodes, corner to corner)")
	fmt.Println()
	fmt.Println("| configuration | measured | paper |")
	fmt.Println("|---|---|---|")
	e := shrimp.MaxLatency(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype))
	x := shrimp.MaxLatency(shrimp.ConfigFor(4, 4, shrimp.GenXpress))
	fmt.Printf("| EISA prototype | %v | slightly less than 2 us |\n", e.Latency)
	fmt.Printf("| next-gen Xpress | %v | less than 1 us |\n", x.Latency)

	fmt.Println("\n## E3 — §5.1 peak bandwidth (deliberate update)")
	fmt.Println()
	fmt.Println("| transfer | EISA MB/s | Xpress MB/s |")
	fmt.Println("|---|---|---|")
	be := shrimp.BandwidthSweepParallel(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), sizes, *total, workers)
	bx := shrimp.BandwidthSweepParallel(shrimp.ConfigFor(2, 1, shrimp.GenXpress), sizes, *total, workers)
	for i, size := range sizes {
		fmt.Printf("| %d B | %.2f | %.2f |\n", size, be[i].MBps, bx[i].MBps)
	}
	fmt.Println("\npaper: 33 MB/s (EISA burst rating), about 70 MB/s next generation")

	fmt.Println("\n## E4 — §5.2 kernel-mediated NX/2 baseline")
	fmt.Println()
	c := shrimp.MeasureBaseline(shrimp.GenEISAPrototype)
	fmt.Println("| implementation | instructions |")
	fmt.Println("|---|---|")
	fmt.Printf("| SHRIMP csend+crecv | %d (%d+%d) |\n", c.Shrimp.Total(), c.Shrimp.Source, c.Shrimp.Dest)
	fmt.Printf("| baseline csend | %d (paper: 222 fast path) |\n", c.BaseCsend.User+c.BaseCsend.Kernel)
	fmt.Printf("| baseline crecv | %d (paper: 261 fast path) |\n", c.BaseCrecv.User+c.BaseCrecv.Kernel)
	fmt.Printf("\noverhead ratio: %.2fx (paper: about 3.2x)\n", c.Ratio())

	fmt.Println("\n## A1 — single-write vs blocked-write automatic update")
	fmt.Println()
	fmt.Println("| mode | MB/s | packets/store |")
	fmt.Println("|---|---|---|")
	modes := []shrimp.Mode{shrimp.SingleWriteAU, shrimp.BlockedWriteAU}
	for _, r := range shrimp.AUBandwidthSweep(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), modes, 2000, workers) {
		fmt.Printf("| %v | %.2f | %.3f |\n", r.Mode, r.MBps, r.PktPerStore)
	}

	fmt.Println("\n## A4 — §4.1 overlap of communication and computation")
	fmt.Println()
	o := shrimp.MeasureOverlap(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), shrimp.BlockedWriteAU, 400)
	fmt.Printf("%s\n", o)

	fmt.Println("\n## O1 — per-stage packet latency (16 nodes, neighbor traffic)")
	fmt.Println()
	fmt.Println("Causal spans across the automatic-update datapath: snoop =")
	fmt.Println("store to Outgoing FIFO, fifo = FIFO to backplane injection,")
	fmt.Println("mesh = injection to Incoming FIFO, deposit = arrival to memory.")
	fmt.Println()
	if err := observabilityRun(); err != nil {
		fatal("shrimp-report: observability run: %v", err)
	}

	fmt.Println("\nBatched interpretation (metrics-on concurrent ISA send/receive):")
	fmt.Println("batch lengths are instructions per engine event; breaks name the")
	fmt.Println("hazard that ended each batch. With both CPUs live the batches are")
	fmt.Println("short — each CPU yields at the other's next event, by design.")
	fmt.Println()
	if err := batchObservabilityRun(); err != nil {
		fatal("shrimp-report: batch observability run: %v", err)
	}
}

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// batchObservabilityRun drives an ISA workload — a compute prologue on
// the sender while the receiver really spins on the flag page — on a
// metrics-enabled pair and prints the per-node batch-length histogram,
// hazard-break counters, and the trace-cache counters that the Go-level
// observabilityRun cannot exercise (no CPU runs there).
func batchObservabilityRun() error {
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	cfg.Metrics = true
	p := msg.NewPair(shrimp.New(cfg), 0, 1)
	p.MapBuf("FLAG", 1, 1, shrimp.SingleWriteAU)
	p.Drain()
	send := isa.MustAssemble("report-send", `
send:
	mov	ecx, 2000	; compute prologue while the receiver spins
spin:	dec	ecx
	jnz	spin
	mov	dword [FLAG], 1	; publish: propagates to the receiver
	hlt
`, p.SSyms)
	recv := isa.MustAssemble("report-recv", `
recv:
	mov	eax, [FLAG]
	test	eax, eax
	jz	recv
	hlt
`, p.RSyms)
	// Start both CPUs before running the clock so the receiver spin is
	// real: it polls the flag for the whole compute prologue.
	p.S.K.BindProcess(p.PS)
	p.S.CPU.Load(send)
	p.S.CPU.R = [8]uint32{}
	p.S.CPU.R[isa.ESP] = uint32(p.SSyms["STKTOP"])
	if err := p.S.CPU.Start("send"); err != nil {
		return err
	}
	p.R.K.BindProcess(p.PR)
	p.R.CPU.Load(recv)
	p.R.CPU.R = [8]uint32{}
	p.R.CPU.R[isa.ESP] = uint32(p.RSyms["STKTOP"])
	if err := p.R.CPU.Start("recv"); err != nil {
		return err
	}
	if err := p.M.RunUntilIdle(50_000_000); err != nil {
		return err
	}

	snap := p.M.Obs.Snapshot()
	fmt.Println("| node | batches | mean len | p50 | p90 | p99 | p999 | max | event | quantum | fault | halt | freeze |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, n := range snap.Nodes {
		h := n.Hists[obs.HistBatchLen.String()]
		fmt.Printf("| %d | %d | %.1f | %d | %d | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			n.Node, h.Count, h.Mean, h.P50, h.P90, h.P99, h.P999, h.Max,
			n.Counters[obs.CtrBatchBreakEvent.String()],
			n.Counters[obs.CtrBatchBreakQuantum.String()],
			n.Counters[obs.CtrBatchBreakFault.String()],
			n.Counters[obs.CtrBatchBreakHalt.String()],
			n.Counters[obs.CtrBatchBreakFreeze.String()])
	}

	fmt.Println()
	fmt.Println("Trace cache (same run): hits/misses are superblock dispatches,")
	fmt.Println("flushes are whole-cache invalidations.")
	fmt.Println()
	fmt.Println("| node | hits | misses | flushes |")
	fmt.Println("|---|---|---|---|")
	for _, n := range snap.Nodes {
		fmt.Printf("| %d | %d | %d | %d |\n",
			n.Node,
			n.Counters[obs.CtrTraceHits.String()],
			n.Counters[obs.CtrTraceMisses.String()],
			n.Counters[obs.CtrTraceFlushes.String()])
	}
	return nil
}

// observabilityRun drives one round of neighbor traffic on a 16-node
// metrics-enabled machine and prints the machine-wide metrics tables
// (the same registry shrimp-trace exports as a Perfetto timeline).
func observabilityRun() error {
	cfg := shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)
	cfg.Metrics = true
	m := shrimp.New(cfg)
	eps := make([]shrimp.Endpoint, 16)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}
	payload := make([]byte, 2048)
	for i := 0; i < 16; i++ {
		x, y := i%4, i/4
		j := y*4 + (x+1)%4
		ch, err := shrimp.NewChannel(m, eps[i], eps[j], 2)
		if err != nil {
			return err
		}
		if err := ch.Send(payload); err != nil {
			return err
		}
		if _, err := ch.Recv(); err != nil {
			return err
		}
	}
	if err := m.RunUntilIdle(1_000_000_000); err != nil {
		return err
	}
	return m.Obs.WriteTable(os.Stdout)
}
