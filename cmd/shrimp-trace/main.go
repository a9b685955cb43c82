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
	"strings"

	shrimp "repro"
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

	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
		fatal("shrimp-trace: bad -mesh %q; want e.g. 4x4", *mesh)
	}
	if *msgBytes < 1 {
		fatal("shrimp-trace: bad -bytes %d; want at least 1", *msgBytes)
	}
	if *rounds < 1 {
		fatal("shrimp-trace: bad -rounds %d; want at least 1", *rounds)
	}
	var g shrimp.Generation
	switch *gen {
	case "eisa":
		g = shrimp.GenEISAPrototype
	case "xpress":
		g = shrimp.GenXpress
	default:
		fatal("shrimp-trace: unknown -gen %q; want eisa or xpress", *gen)
	}
	cfg := shrimp.ConfigFor(w, h, g)
	cfg.Metrics = true
	cfg.SpanCapacity = *spans
	if *interval > 0 {
		cfg.Recorder = shrimp.RecorderConfig{Interval: shrimp.Time(interval.Nanoseconds()) * shrimp.Nanosecond}
	}
	m := shrimp.New(cfg)
	n := w * h

	eps := make([]shrimp.Endpoint, n)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}

	type link struct{ src, dst int }
	var links []link
	switch *workload {
	case "neighbors":
		for i := 0; i < n; i++ {
			x, y := i%w, i/w
			j := y*w + (x+1)%w
			if j != i {
				links = append(links, link{i, j})
			}
		}
	case "hotspot":
		for i := 1; i < n; i++ {
			links = append(links, link{i, 0})
		}
	case "ring":
		for i := 0; i < n; i++ {
			links = append(links, link{i, (i + 1) % n})
		}
	default:
		fatal("shrimp-trace: unknown -workload %q; want neighbors, hotspot or ring", *workload)
	}

	channels := make([]*shrimp.Channel, len(links))
	pages := (*msgBytes+shrimp.PageSize-1)/shrimp.PageSize + 1
	for i, l := range links {
		ch, err := shrimp.NewChannel(m, eps[l.src], eps[l.dst], pages)
		if err != nil {
			fatal("shrimp-trace: map %d->%d: %v", l.src, l.dst, err)
		}
		channels[i] = ch
	}

	payload := make([]byte, *msgBytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	for r := 0; r < *rounds; r++ {
		for _, ch := range channels {
			if err := ch.Send(payload); err != nil {
				fatal("shrimp-trace: send: %v", err)
			}
		}
		for _, ch := range channels {
			if _, err := ch.Recv(); err != nil {
				fatal("shrimp-trace: recv: %v", err)
			}
		}
	}
	m.RunUntilIdle(1_000_000_000)

	w2 := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("shrimp-trace: %v", err)
		}
		defer f.Close()
		w2 = f
	}
	bw := bufio.NewWriter(w2)
	if err := m.TraceJSON(bw); err != nil {
		fatal("shrimp-trace: trace: %v", err)
	}
	if err := bw.Flush(); err != nil {
		fatal("shrimp-trace: trace: %v", err)
	}

	fmt.Fprintf(os.Stderr, "workload %q on %dx%d %s mesh: %d spans\n",
		*workload, w, h, g, len(m.Obs.CompletedSpans()))
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
