// shrimp-faults sweeps the deterministic fault injector: a fixed-seed
// deliberate-update stream is pushed through an increasingly lossy mesh
// with the reliable-delivery layer on, and each point reports the
// goodput that survived alongside what recovery cost (retransmits,
// ACKs, NACKs, duplicate drops). Two runs with the same flags print
// byte-identical output — faults are a pure function of (seed, rates,
// clock), never of wall time or host scheduling.
//
//	shrimp-faults                          # default ladder to 5% loss
//	shrimp-faults -drops 0,10000,100000    # custom ppm ladder
//	shrimp-faults -seed 7 -w 4 -h 4        # corner-to-corner on a 4x4 mesh
//	shrimp-faults -avail 0,1,2 -w 4 -h 4   # availability vs crashed nodes
//
// The -avail mode swaps the loss ladder for a crash ladder: a ring
// workload runs with Survivable mode armed while the fault plan crashes
// 0, 1, 2... nodes mid-run, and each point reports the survivors'
// verified goodput, the failure-detector and teardown accounting, and a
// checksum of every surviving receive page (bit-identical across runs
// and resets).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	shrimp "repro"
)

func main() {
	w := flag.Int("w", 2, "mesh width")
	h := flag.Int("h", 1, "mesh height")
	gen := flag.String("gen", "xpress", "network interface generation: eisa or xpress")
	seed := flag.Uint64("seed", 1729, "fault injector seed")
	drops := flag.String("drops", "0,1000,2500,5000,10000,25000,50000",
		"comma-separated packet drop rates in parts per million")
	transfer := flag.Int("transfer", 1024, "bytes per deliberate-update transfer")
	total := flag.Int("bytes", 128*1024, "total payload bytes per point")
	workers := flag.Int("workers", 1, "sweep worker-pool size (0 = GOMAXPROCS)")
	avail := flag.String("avail", "", "availability mode: comma-separated crashed-node counts (e.g. 0,1,2)")
	rounds := flag.Int("rounds", 6, "availability mode: write rounds per flow")
	words := flag.Int("words", 64, "availability mode: words per round per flow")
	crashAt := flag.Int("crashat", 450, "availability mode: first crash time in microseconds")
	stagger := flag.Int("stagger", 120, "availability mode: gap between crashes in microseconds")
	flag.Parse()

	var g shrimp.Generation
	switch *gen {
	case "eisa":
		g = shrimp.GenEISAPrototype
	case "xpress":
		g = shrimp.GenXpress
	default:
		fmt.Fprintf(os.Stderr, "shrimp-faults: unknown -gen %q; want eisa or xpress\n", *gen)
		os.Exit(1)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "shrimp-faults: bad -workers %d; want 0 (GOMAXPROCS), 1 (sequential) or more\n", *workers)
		os.Exit(1)
	}
	if *avail != "" {
		availMode(*w, *h, g, *seed, *avail, *rounds, *words, *workers,
			shrimp.Time(*crashAt)*shrimp.Microsecond, shrimp.Time(*stagger)*shrimp.Microsecond)
		return
	}
	ladder, err := parsePPM(*drops)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *transfer <= 0 || *transfer%4 != 0 || *transfer > shrimp.PageSize {
		fmt.Fprintf(os.Stderr, "shrimp-faults: bad -transfer %d (want a positive multiple of 4, at most %d)\n",
			*transfer, shrimp.PageSize)
		os.Exit(1)
	}
	if *total < *transfer {
		fmt.Fprintf(os.Stderr, "shrimp-faults: bad -bytes %d (want at least one %d B transfer)\n", *total, *transfer)
		os.Exit(1)
	}

	cfg := shrimp.ConfigFor(*w, *h, g)
	cfg.Metrics = true // tail-latency quantiles ride the stage-total histogram
	cfg.Faults = shrimp.FaultConfig{Seed: *seed, Reliable: true}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	src, dst := 0, cfg.NodeCount()-1
	fmt.Printf("fault sweep: %dx%d %s mesh, node %d -> %d, %d B transfers, %d B per point, seed %d\n",
		*w, *h, g, src, dst, *transfer, *total, *seed)
	fmt.Println()
	fmt.Printf("  %-10s %-12s %-10s %-24s %-44s %s\n",
		"drop", "goodput", "delivered", "injected", "recovery", "latency p50/p99/p999")
	fmt.Printf("  %-10s %-12s %-10s %-24s %-44s %s\n",
		"----", "-------", "---------", "--------", "--------", "--------------------")
	failed := false
	for _, p := range shrimp.FaultSweep(cfg, ladder, *transfer, *total, *workers) {
		if p.Err != "" {
			failed = true
			fmt.Printf("  %8.2f%%  FAILED: %s\n", float64(p.DropPPM)/1e4, p.Err)
			continue
		}
		fmt.Printf("  %8.2f%%  %7.2f MB/s %7d B  %5d drop %4d dup%s  %v / %v / %v\n",
			float64(p.DropPPM)/1e4, p.GoodputMBps, p.GoodBytes,
			p.FaultDrops, p.Dups,
			fmt.Sprintf("  %4d rexmit %4d ack %3d nack %3d dupdrop",
				p.Retransmits, p.AcksSent, p.NacksSent, p.DupDrops),
			p.LatP50, p.LatP99, p.LatP999)
	}
	if failed {
		os.Exit(1)
	}
}

// availMode runs the crash-survival availability sweep: same machine,
// same printing discipline (two runs with the same flags are
// byte-identical), but the ladder is crashed-node counts instead of
// loss rates.
func availMode(w, h int, g shrimp.Generation, seed uint64, counts string, rounds, words, workers int,
	crashBase, crashStagger shrimp.Time) {
	var crashes []int
	for _, f := range strings.Split(counts, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 || v > 2 {
			fmt.Fprintf(os.Stderr, "shrimp-faults: bad crash count %q (want 0..2)\n", f)
			os.Exit(1)
		}
		crashes = append(crashes, v)
	}
	if len(crashes) == 0 {
		fmt.Fprintln(os.Stderr, "shrimp-faults: -avail is empty")
		os.Exit(1)
	}

	cfg := shrimp.ConfigFor(w, h, g)
	cfg.Metrics = true
	cfg.Faults = shrimp.FaultConfig{
		Seed:       seed,
		Reliable:   true,
		Survivable: true,
		Heartbeat:  200 * shrimp.Microsecond,
		// A short budget and timeout keep detection latency small
		// relative to the workload without changing its semantics.
		RetryBudget: 6,
		AckTimeout:  10 * shrimp.Microsecond,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("availability sweep: %dx%d %s mesh, ring flows, %d rounds x %d words, crashes at %v +%v, seed %d\n",
		w, h, g, rounds, words, crashBase, crashStagger, seed)
	fmt.Println()
	fmt.Printf("  %-8s %-12s %-16s %-36s %-18s %s\n",
		"crashes", "flows", "verified", "failure detector", "memsum", "latency p50/p99/p999")
	fmt.Printf("  %-8s %-12s %-16s %-36s %-18s %s\n",
		"-------", "-----", "--------", "----------------", "------", "--------------------")
	failed := false
	for _, p := range shrimp.AvailabilitySweep(cfg, crashes, crashBase, crashStagger, rounds, words, workers) {
		if p.Err != "" {
			failed = true
			fmt.Printf("  %7d  FAILED: %s\n", p.Crashes, p.Err)
			continue
		}
		fmt.Printf("  %7d  %3d/%-3d good %8d words  %3d peer-downs %5d drops %4d torn  %016x  %v / %v / %v\n",
			p.Crashes, p.GoodFlows, p.Flows, p.GoodWords,
			p.PeerDowns, p.PeerDownDrops, p.MapsTorn, p.MemSum,
			p.LatP50, p.LatP99, p.LatP999)
	}
	if failed {
		os.Exit(1)
	}
}

func parsePPM(s string) ([]uint32, error) {
	var out []uint32
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil || v > 1_000_000 {
			return nil, fmt.Errorf("shrimp-faults: bad drop rate %q (want 0..1000000 ppm)", f)
		}
		out = append(out, uint32(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shrimp-faults: -drops is empty")
	}
	return out, nil
}
