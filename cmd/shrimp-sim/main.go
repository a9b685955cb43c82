// shrimp-sim runs configurable workloads on a simulated SHRIMP machine
// and reports machine-wide statistics: message patterns across the mesh,
// NIC and backplane counters, and flow-control behavior.
package main

import (
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
	rounds := flag.Int("rounds", 8, "workload rounds")
	traceN := flag.Int("trace", 0, "retain and dump the last N datapath events")
	flag.Parse()

	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
		fatal("shrimp-sim: bad -mesh %q; want e.g. 4x4", *mesh)
	}
	switch *workload {
	case "neighbors", "hotspot", "ring":
	default:
		fatal("shrimp-sim: unknown -workload %q; want neighbors, hotspot or ring", *workload)
	}
	if *msgBytes < 1 {
		fatal("shrimp-sim: bad -bytes %d; want at least 1", *msgBytes)
	}
	if *rounds < 1 {
		fatal("shrimp-sim: bad -rounds %d; want at least 1", *rounds)
	}
	g := shrimp.GenEISAPrototype
	if *gen == "xpress" {
		g = shrimp.GenXpress
	}
	cfg := shrimp.ConfigFor(w, h, g)
	cfg.TraceCapacity = *traceN
	m := shrimp.New(cfg)
	n := w * h

	// One endpoint per node.
	eps := make([]shrimp.Endpoint, n)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}

	// Build the channel set for the chosen pattern.
	type link struct{ src, dst int }
	var links []link
	switch *workload {
	case "neighbors":
		// Every node sends to its east neighbor (wrapping by row).
		for i := 0; i < n; i++ {
			x, y := i%w, i/w
			j := y*w + (x+1)%w
			if j != i {
				links = append(links, link{i, j})
			}
		}
	case "hotspot":
		// Everyone sends to node 0.
		for i := 1; i < n; i++ {
			links = append(links, link{i, 0})
		}
	case "ring":
		for i := 0; i < n; i++ {
			links = append(links, link{i, (i + 1) % n})
		}
	}

	channels := make([]*shrimp.Channel, len(links))
	pages := (*msgBytes+shrimp.PageSize-1)/shrimp.PageSize + 1
	for i, l := range links {
		ch, err := shrimp.NewChannel(m, eps[l.src], eps[l.dst], pages)
		if err != nil {
			fatal("shrimp-sim: map %d->%d: %v", l.src, l.dst, err)
		}
		channels[i] = ch
	}

	payload := make([]byte, *msgBytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	start := m.Now()
	for r := 0; r < *rounds; r++ {
		for _, ch := range channels {
			if err := ch.Send(payload); err != nil {
				fatal("shrimp-sim: send: %v", err)
			}
		}
		for i, ch := range channels {
			got, err := ch.Recv()
			if err != nil {
				fatal("shrimp-sim: recv: %v", err)
			}
			if len(got) != *msgBytes {
				fatal("shrimp-sim: link %d: short message %d", i, len(got))
			}
		}
	}
	m.RunUntilIdle(1_000_000_000)
	elapsed := m.Now() - start

	moved := *rounds * len(links) * *msgBytes
	fmt.Printf("workload %q on %dx%d %s mesh: %d links x %d rounds x %d B\n",
		*workload, w, h, g, len(links), *rounds, *msgBytes)
	fmt.Printf("simulated time: %v   aggregate payload: %.2f MB   %.2f MB/s machine-wide\n",
		elapsed, float64(moved)/1e6, float64(moved)/1e6/elapsed.Seconds())

	ns := m.Net.Stats()
	fmt.Printf("\nbackplane: %d packets delivered, %d wire bytes, avg latency %v, max %v, %d flow-control parks\n",
		ns.Delivered, ns.TotalWireByte, ns.TotalLatency/shrimp.Time(max(1, int(ns.Delivered))), ns.MaxLatency, ns.Parked)

	var out, in, drops uint64
	var stalls uint64
	for i := 0; i < n; i++ {
		s := m.Node(i).NIC.Stats()
		out += s.PacketsOut
		in += s.PacketsIn
		drops += s.DropNotMappedIn + s.DropWrongDest + s.DropCRC
		stalls += s.OutFullEvents
	}
	fmt.Printf("NICs: %d packets out, %d in, %d drops, %d outgoing-FIFO stall events\n",
		out, in, drops, stalls)

	if *traceN > 0 {
		fmt.Printf("\n--- last %d datapath events ---\n", *traceN)
		if err := m.Tracer.Dump(os.Stdout); err != nil {
			fmt.Println("trace dump:", err)
		}
	}
}

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
