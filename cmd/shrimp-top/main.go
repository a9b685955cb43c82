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
	"sync/atomic"
	"time"

	shrimp "repro"
	"repro/internal/msg"
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

	wl, err := msg.ParseMeshWorkload(*mesh, *gen, *workload, *msgBytes, *rounds)
	if err != nil {
		fatal("shrimp-top: %v", err)
	}
	if *serve != "" && *interval <= 0 {
		fatal("shrimp-top: -serve needs -interval above 0, got %v", *interval)
	}
	cfg := shrimp.ConfigFor(wl.W, wl.H, wl.Gen)
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

	if _, err := wl.Run(m); err != nil {
		fatal("shrimp-top: %v", err)
	}

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

// fatal reports a bad flag or a failed run on stderr and exits 1.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
