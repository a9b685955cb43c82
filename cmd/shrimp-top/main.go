// shrimp-top runs a message-passing workload on a simulated SHRIMP
// machine with the flight recorder armed and exposes the telemetry as
// OpenMetrics/Prometheus text. Two modes:
//
// One-shot (default): run the workload to quiescence, then dump the
// final registry snapshot plus the recorder's retained timeline —
// deterministic, so two runs with the same flags diff byte-identical:
//
//	shrimp-top -mesh 4x4 -workload neighbors -rounds 8
//	shrimp-top -o metrics.prom
//
// Serve (-serve addr): publish the latest exposition over HTTP while
// the simulation runs, republishing on every recorder sample; after the
// workload quiesces the final scrape stays up until interrupted:
//
//	shrimp-top -serve :9100 &
//	curl localhost:9100/metrics
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	shrimp "repro"
)

func main() {
	mesh := flag.String("mesh", "4x4", "mesh dimensions, e.g. 4x4")
	gen := flag.String("gen", "eisa", "generation: eisa or xpress")
	workload := flag.String("workload", "neighbors", "workload: neighbors, hotspot or ring")
	msgBytes := flag.Int("bytes", 1024, "message size")
	rounds := flag.Int("rounds", 8, "workload rounds")
	interval := flag.Duration("interval", 10*time.Microsecond, "flight-recorder cadence in simulated time")
	capacity := flag.Int("cap", 0, "recorder ring capacity in samples (0 = default)")
	serve := flag.String("serve", "", "serve the exposition over HTTP at this address, e.g. :9100")
	out := flag.String("o", "", "write the one-shot exposition to this file (default stdout)")
	flag.Parse()

	var w, h int
	if _, err := fmt.Sscanf(strings.ToLower(*mesh), "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
		fatal("shrimp-top: bad -mesh %q; want e.g. 4x4", *mesh)
	}
	if *msgBytes < 1 {
		fatal("shrimp-top: bad -bytes %d; want at least 1", *msgBytes)
	}
	if *rounds < 1 {
		fatal("shrimp-top: bad -rounds %d; want at least 1", *rounds)
	}
	if *serve != "" && *interval <= 0 {
		fatal("shrimp-top: -serve needs -interval above 0, got %v", *interval)
	}
	var g shrimp.Generation
	switch *gen {
	case "eisa":
		g = shrimp.GenEISAPrototype
	case "xpress":
		g = shrimp.GenXpress
	default:
		fatal("shrimp-top: unknown -gen %q; want eisa or xpress", *gen)
	}
	cfg := shrimp.ConfigFor(w, h, g)
	cfg.Metrics = true
	cfg.Recorder = shrimp.RecorderConfig{
		Interval: shrimp.Time(interval.Nanoseconds()) * shrimp.Nanosecond,
		Capacity: *capacity,
	}
	if err := cfg.Validate(); err != nil {
		fatal("shrimp-top: %v", err)
	}
	m := shrimp.New(cfg)

	// Serve mode: republish the exposition on every recorder sample; the
	// callback runs between events, so reading the registry is safe.
	// HTTP handlers only ever see the atomic pointer.
	var latest atomic.Pointer[[]byte]
	publish := func() {
		var b bytes.Buffer
		if err := m.WriteOpenMetrics(&b); err != nil {
			fatal("shrimp-top: %v", err)
		}
		bs := b.Bytes()
		latest.Store(&bs)
	}
	if *serve != "" {
		publish()
		m.Rec.SetOnSample(func(shrimp.Time) { publish() })
		mux := http.NewServeMux()
		handler := func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			rw.Write(*latest.Load())
		}
		mux.HandleFunc("/metrics", handler)
		mux.HandleFunc("/", handler)
		go func() {
			if err := http.ListenAndServe(*serve, mux); err != nil {
				fatal("shrimp-top: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving OpenMetrics on %s/metrics\n", *serve)
	}

	runWorkload(m, w, h, *workload, *msgBytes, *rounds)

	if *serve != "" {
		publish()
		fmt.Fprintf(os.Stderr, "workload quiesced at %v after %d samples; final scrape stays up (Ctrl-C to exit)\n",
			m.Now(), m.Rec.Taken())
		select {}
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal("shrimp-top: %v", err)
		}
		defer f.Close()
		dst = f
	}
	if err := m.WriteOpenMetrics(dst); err != nil {
		fatal("shrimp-top: %v", err)
	}
}

// runWorkload maps the channel topology and drives it to quiescence —
// the same Go-level workload shapes shrimp-trace uses.
func runWorkload(m *shrimp.Machine, w, h int, workload string, msgBytes, rounds int) {
	n := w * h
	eps := make([]shrimp.Endpoint, n)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}
	type link struct{ src, dst int }
	var links []link
	switch workload {
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
		fatal("shrimp-top: unknown -workload %q; want neighbors, hotspot or ring", workload)
	}
	channels := make([]*shrimp.Channel, len(links))
	pages := (msgBytes+shrimp.PageSize-1)/shrimp.PageSize + 1
	for i, l := range links {
		ch, err := shrimp.NewChannel(m, eps[l.src], eps[l.dst], pages)
		if err != nil {
			fatal("shrimp-top: map %d->%d: %v", l.src, l.dst, err)
		}
		channels[i] = ch
	}
	payload := make([]byte, msgBytes)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	for r := 0; r < rounds; r++ {
		for _, ch := range channels {
			if err := ch.Send(payload); err != nil {
				fatal("shrimp-top: send: %v", err)
			}
		}
		for _, ch := range channels {
			if _, err := ch.Recv(); err != nil {
				fatal("shrimp-top: recv: %v", err)
			}
		}
	}
	m.RunUntilIdle(1_000_000_000)
}

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
