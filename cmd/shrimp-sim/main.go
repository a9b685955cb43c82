// shrimp-sim runs configurable workloads on a simulated SHRIMP machine
// and reports machine-wide statistics: message patterns across the mesh,
// NIC and backplane counters, and flow-control behavior. With -trace N
// it also turns the metrics registry on and prints the last N completed
// packet spans followed by the registry's summary table.
package main

import (
	"flag"
	"fmt"
	"os"

	shrimp "repro"
	"repro/internal/msg"
	"repro/internal/obs"
)

func main() {
	mesh := flag.String("mesh", "4x4", "mesh dimensions, e.g. 4x4")
	gen := flag.String("gen", "eisa", "generation: eisa or xpress")
	workload := flag.String("workload", "neighbors", "workload: neighbors, hotspot or ring")
	msgBytes := flag.Int("bytes", 1024, "message size")
	rounds := flag.Int("rounds", 8, "workload rounds")
	traceN := flag.Int("trace", 0, "print the last N completed packet spans and the metrics summary")
	flag.Parse()

	wl, err := msg.ParseMeshWorkload(*mesh, *gen, *workload, *msgBytes, *rounds)
	if err != nil {
		fatal("shrimp-sim: %v", err)
	}
	if *traceN < 0 {
		fatal("shrimp-sim: bad -trace %d; want at least 0", *traceN)
	}
	cfg := shrimp.ConfigFor(wl.W, wl.H, wl.Gen)
	if *traceN > 0 {
		cfg.Metrics = true
		cfg.SpanCapacity = max(*traceN, obs.DefaultSpanCapacity)
	}
	m := shrimp.New(cfg)
	run, err := wl.Run(m)
	if err != nil {
		fatal("shrimp-sim: %v", err)
	}
	elapsed := m.Now() - run.Start

	moved := wl.Rounds * run.Links * wl.Bytes
	fmt.Printf("workload %q on %dx%d %s mesh: %d links x %d rounds x %d B\n",
		wl.Pattern, wl.W, wl.H, wl.Gen, run.Links, wl.Rounds, wl.Bytes)
	fmt.Printf("simulated time: %v   aggregate payload: %.2f MB   %.2f MB/s machine-wide\n",
		elapsed, float64(moved)/1e6, float64(moved)/1e6/elapsed.Seconds())

	ns := m.Net.Stats()
	fmt.Printf("\nbackplane: %d packets delivered, %d wire bytes, avg latency %v, max %v, %d flow-control parks\n",
		ns.Delivered, ns.TotalWireByte, ns.TotalLatency/shrimp.Time(max(1, int(ns.Delivered))), ns.MaxLatency, ns.Parked)

	var out, in, drops, stalls uint64
	for _, node := range m.Nodes {
		s := node.NIC.Stats()
		out += s.PacketsOut
		in += s.PacketsIn
		drops += s.Drops()
		stalls += s.OutFullEvents
	}
	fmt.Printf("NICs: %d packets out, %d in, %d drops, %d outgoing-FIFO stall events\n",
		out, in, drops, stalls)

	if *traceN > 0 {
		spans := m.Obs.CompletedSpans()
		spans = spans[max(0, len(spans)-*traceN):]
		fmt.Printf("\n--- last %d completed packet spans ---\n", len(spans))
		for _, s := range spans {
			end := "deposit"
			if s.Dropped {
				end = "drop"
			}
			fmt.Printf("%12v node%-2d -> node%-2d %-13s %5dB %-7s latency %v\n",
				s.Deposited, s.Src, s.Dst, s.Kind, s.Bytes, end, s.Deposited-s.Start)
		}
		fmt.Println()
		if err := m.Obs.WriteTable(os.Stdout); err != nil {
			fatal("shrimp-sim: metrics table: %v", err)
		}
	}
}

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
