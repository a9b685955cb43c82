// shrimp-hwperf regenerates the §5.1 hardware performance results:
// automatic-update store latency (paper: < 2 µs on the 16-node EISA
// prototype, < 1 µs next generation) and deliberate-update peak
// bandwidth (paper: 33 MB/s EISA-limited, ~70 MB/s next generation),
// plus the single-write vs blocked-write automatic-update ablation.
// All sweeps run on the deterministic worker pool: -parallel N fans
// independent sweep points across N machines without changing a single
// reported number.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	shrimp "repro"
)

func main() {
	exp := flag.String("exp", "all", "experiment: latency, bandwidth, au, overlap, mergewindow or all")
	mesh := flag.String("mesh", "4x4", "mesh dimensions, e.g. 4x4")
	total := flag.Int("total", 512*1024, "bytes to stream in bandwidth runs")
	parallel := flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	switch *exp {
	case "latency", "bandwidth", "au", "overlap", "mergewindow", "all":
	default:
		fatal("shrimp-hwperf: unknown -exp %q; want latency, bandwidth, au, overlap, mergewindow or all", *exp)
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
		fatal("shrimp-hwperf: bad -mesh %q; want e.g. 4x4", *mesh)
	}
	if largest := sizes[len(sizes)-1]; *total < largest {
		fatal("shrimp-hwperf: bad -total %d; want at least the largest transfer size, %d", *total, largest)
	}
	if *parallel < 0 {
		fatal("shrimp-hwperf: bad -parallel %d; want 0 (GOMAXPROCS), 1 (sequential) or more", *parallel)
	}
	workers := *parallel

	gens := []struct {
		name string
		gen  shrimp.Generation
	}{
		{"EISA prototype", shrimp.GenEISAPrototype},
		{"next-gen Xpress", shrimp.GenXpress},
	}
	// The latency experiment is the only one on the -mesh machine, and it
	// stores from node 0 to every other node.
	latency := *exp == "latency" || *exp == "all"
	if latency {
		if w*h < 2 {
			fatal("shrimp-hwperf: bad -mesh %q; the latency experiment needs at least two nodes", *mesh)
		}
		for _, g := range gens {
			if err := shrimp.ConfigFor(w, h, g.gen).Validate(); err != nil {
				fatal("shrimp-hwperf: bad -mesh %q: %v", *mesh, err)
			}
		}
	}

	if latency {
		fmt.Printf("=== §5.1 latency: single-write automatic update, %dx%d mesh ===\n", w, h)
		for _, g := range gens {
			cfg := shrimp.ConfigFor(w, h, g.gen)
			fmt.Printf("\n%s (store on node 0 -> arrival in destination memory):\n", g.name)
			byHops := map[int][]shrimp.LatencyResult{}
			for _, r := range shrimp.LatencySweepParallel(cfg, workers) {
				byHops[r.Hops] = append(byHops[r.Hops], r)
			}
			for hops := 1; hops <= w+h-2; hops++ {
				rs := byHops[hops]
				if len(rs) == 0 {
					continue
				}
				var sum shrimp.Time
				for _, r := range rs {
					sum += r.Latency
				}
				fmt.Printf("  %2d hop(s): %v   (%d destinations)\n",
					hops, sum/shrimp.Time(len(rs)), len(rs))
			}
			worst := shrimp.MaxLatency(cfg)
			fmt.Printf("  worst case (corner to corner, %d hops): %v\n", worst.Hops, worst.Latency)
		}
		fmt.Println("\npaper: slightly less than 2 us on the 16-node EISA prototype;")
		fmt.Println("       less than 1 us for the next implementation")
	}

	if *exp == "bandwidth" || *exp == "all" {
		fmt.Println("\n=== §5.1 peak bandwidth: deliberate-update transfers ===")
		for _, g := range gens {
			cfg := shrimp.ConfigFor(2, 1, g.gen)
			fmt.Printf("\n%s:\n", g.name)
			for _, r := range shrimp.BandwidthSweepParallel(cfg, sizes, *total, workers) {
				fmt.Printf("  %s\n", r)
			}
		}
		fmt.Println("\npaper: 33 MB/s peak, limited by the EISA bus in burst mode;")
		fmt.Println("       about 70 MB/s for the next implementation")
	}

	if *exp == "overlap" || *exp == "all" {
		fmt.Println("\n=== §4.1 overlap: CPU-visible cost of communicating ===")
		r := shrimp.MeasureOverlap(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), shrimp.BlockedWriteAU, 400)
		fmt.Printf("  %s\n", r)
		fmt.Println("  (the store loop costs the CPU the same time whether or not its")
		fmt.Println("   output page is mapped: propagation rides behind the write buffer)")
	}

	if *exp == "mergewindow" || *exp == "all" {
		fmt.Println("\n=== §4.1 blocked-write merge window sweep (100 ns store gap) ===")
		cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
		windows := []shrimp.Time{20 * shrimp.Nanosecond, 50 * shrimp.Nanosecond,
			150 * shrimp.Nanosecond, 500 * shrimp.Nanosecond, 2 * shrimp.Microsecond}
		for _, r := range shrimp.MergeWindowSweep(cfg, windows, 100*shrimp.Nanosecond, 256, workers) {
			fmt.Printf("  window %10v: %6.3f packets/store (%d packets)\n", r.Window, r.PktPerStore, r.Packets)
		}
	}

	if *exp == "au" || *exp == "all" {
		fmt.Println("\n=== §4.1 ablation: single-write vs blocked-write automatic update ===")
		cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
		modes := []shrimp.Mode{shrimp.SingleWriteAU, shrimp.BlockedWriteAU}
		for _, r := range shrimp.AUBandwidthSweep(cfg, modes, 4000, workers) {
			fmt.Printf("  %s\n", r)
		}
		fmt.Println("\n(single-write optimizes latency; blocked-write optimizes network")
		fmt.Println(" bandwidth usage — the two implementations of §4.1)")
	}
}

// fatal reports a bad flag on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
