// shrimp-trace runs a workload on a simulated SHRIMP machine with the
// metrics registry enabled and exports the timeline as Chrome
// trace-event JSON: one process track per node, each completed causal
// span rendered as nested async slices (snoop, out-fifo, mesh, deposit),
// plus per-node counter totals and, with -interval, the flight
// recorder's counter tracks. Load the output in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
//	go run ./cmd/shrimp-trace -mesh 4x4 -workload neighbors -o trace.json
//
// A per-stage latency summary goes to stderr so stdout stays pipeable:
//
//	go run ./cmd/shrimp-trace | gzip > trace.json.gz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	shrimp "repro"
	"repro/internal/msg"
)

func main() {
	mesh := flag.String("mesh", "4x4", "mesh dimensions, e.g. 4x4")
	gen := flag.String("gen", "eisa", "generation: eisa or xpress")
	workload := flag.String("workload", "neighbors", "workload: neighbors, hotspot or ring")
	msgBytes := flag.Int("bytes", 1024, "message size")
	rounds := flag.Int("rounds", 4, "workload rounds")
	spans := flag.Int("spans", 0, "retain up to N completed spans (0 = default)")
	interval := flag.Duration("interval", 0, "arm the flight recorder at this simulated cadence, e.g. 10us (0 = off); samples render as counter tracks")
	out := flag.String("o", "", "write the timeline to this file (default stdout)")
	flag.Parse()

	wl, err := msg.ParseMeshWorkload(*mesh, *gen, *workload, *msgBytes, *rounds)
	if err != nil {
		fatal("shrimp-trace: %v", err)
	}
	if *spans < 0 {
		fatal("shrimp-trace: bad -spans %d; want 0 or more", *spans)
	}
	if *interval < 0 {
		fatal("shrimp-trace: bad -interval %v; want 0 or more", *interval)
	}
	cfg := shrimp.ConfigFor(wl.W, wl.H, wl.Gen)
	cfg.Metrics = true
	cfg.SpanCapacity = *spans
	if *interval > 0 {
		cfg.Recorder = shrimp.RecorderConfig{Interval: shrimp.Time(interval.Nanoseconds()) * shrimp.Nanosecond}
	}
	m := shrimp.New(cfg)
	if _, err := wl.Run(m); err != nil {
		fatal("shrimp-trace: %v", err)
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("shrimp-trace: %v", err)
		}
		defer f.Close()
		dst = f
	}
	bw := bufio.NewWriter(dst)
	if err := m.TraceJSON(bw); err != nil {
		fatal("shrimp-trace: trace: %v", err)
	}
	if err := bw.Flush(); err != nil {
		fatal("shrimp-trace: trace: %v", err)
	}

	fmt.Fprintf(os.Stderr, "workload %q on %dx%d %s mesh: %d spans\n",
		wl.Pattern, wl.W, wl.H, wl.Gen, len(m.Obs.CompletedSpans()))
	if m.Rec != nil {
		fmt.Fprintf(os.Stderr, "flight recorder: %d samples every %v (%d retained)\n",
			m.Rec.Taken(), m.Rec.Interval(), m.Rec.Len())
	}
	if err := m.Obs.WriteStageTable(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "stage table:", err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "timeline written to %s — open in ui.perfetto.dev\n", *out)
	}
}

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
