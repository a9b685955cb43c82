// Package perf measures simulator throughput: discrete events dispatched
// per wall-clock second, heap allocations per operation, and the ratio of
// simulated time to wall time. cmd/shrimp-bench drives it to produce the
// BENCH_*.json evidence files referenced by DESIGN.md.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/sim"
)

// Sample is what one measured operation reports back: how many DES
// events it dispatched and how much simulated time it covered, plus any
// experiment-specific metrics (latency, bandwidth, ...). Metrics from
// the last iteration win; they are expected to be deterministic.
type Sample struct {
	Events  uint64
	SimTime sim.Time
	Metrics map[string]float64
}

// Result aggregates one benchmark's measurements.
type Result struct {
	Name            string             `json:"name"`
	Iterations      int                `json:"iterations"`
	WallNSPerOp     float64            `json:"wall_ns_per_op"`
	EventsPerOp     float64            `json:"events_per_op"`
	EventsPerSec    float64            `json:"events_per_sec"`
	SimUSPerOp      float64            `json:"sim_us_per_op"`
	SimWallRatio    float64            `json:"sim_wall_ratio"`
	AllocsPerOp     float64            `json:"allocs_per_op"`
	AllocBytesPerOp float64            `json:"alloc_bytes_per_op"`
	Metrics         map[string]float64 `json:"metrics,omitempty"`
}

// Measure runs fn iters times (after one untimed warm-up) and aggregates
// wall time, event throughput, simulated/wall ratio and allocation
// counts. fn must perform one complete, self-contained operation.
func Measure(name string, iters int, fn func() Sample) Result {
	if iters <= 0 {
		iters = 1
	}
	fn() // warm-up: one-time initialization costs stay out of the timing
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events uint64
	var simTime sim.Time
	var metrics map[string]float64
	for i := 0; i < iters; i++ {
		s := fn()
		events += s.Events
		simTime += s.SimTime
		if s.Metrics != nil {
			metrics = s.Metrics
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	wallNS := float64(wall.Nanoseconds())
	if wallNS <= 0 {
		wallNS = 1
	}
	n := float64(iters)
	return Result{
		Name:            name,
		Iterations:      iters,
		WallNSPerOp:     wallNS / n,
		EventsPerOp:     float64(events) / n,
		EventsPerSec:    float64(events) / (wallNS / 1e9),
		SimUSPerOp:      simTime.Microseconds() / n,
		SimWallRatio:    float64(simTime) / (wallNS * 1000), // both in ps
		AllocsPerOp:     float64(after.Mallocs-before.Mallocs) / n,
		AllocBytesPerOp: float64(after.TotalAlloc-before.TotalAlloc) / n,
		Metrics:         metrics,
	}
}

// Report is the top-level JSON document shrimp-bench emits.
type Report struct {
	Paper     string `json:"paper"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// GOMAXPROCS is the scheduler's parallelism limit at report time —
	// the number of sweep workers that can actually run at once; 0 for
	// reports that predate the field.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// Workers is the sweep worker-pool size the parallel benchmarks ran
	// with (the -parallel flag); 0 for reports that predate the pool.
	Workers int      `json:"workers,omitempty"`
	Results []Result `json:"results"`
}

// NewReport builds a report shell with the runtime environment filled in.
func NewReport(paper string) *Report {
	return &Report{
		Paper:      paper,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a report previously written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("perf: parsing report: %w", err)
	}
	return &rep, nil
}

// Regression is one benchmark that got worse than its baseline beyond
// tolerance.
type Regression struct {
	Name   string
	Metric string // "events_per_sec" or "allocs_per_op"
	Old    float64
	New    float64
	Change float64 // fractional change, positive = worse
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.0f -> %.0f (%.1f%% worse)",
		r.Name, r.Metric, r.Old, r.New, 100*r.Change)
}

// Compare flags benchmarks of cur that regressed against base by more
// than tol (0.10 = 10%): events/sec lower, or allocs/op higher.
// Benchmarks present in only one report are ignored — new benchmarks
// are not regressions, and retired ones are not failures. A zero-alloc
// baseline allows one alloc/op of runtime noise before flagging.
func Compare(base, cur *Report, tol float64) []Regression {
	old := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		old[r.Name] = r
	}
	var regs []Regression
	for _, n := range cur.Results {
		b, ok := old[n.Name]
		if !ok {
			continue
		}
		if b.EventsPerSec > 0 {
			if drop := 1 - n.EventsPerSec/b.EventsPerSec; drop > tol {
				regs = append(regs, Regression{n.Name, "events_per_sec", b.EventsPerSec, n.EventsPerSec, drop})
			}
		}
		if b.AllocsPerOp > 0 {
			if rise := n.AllocsPerOp/b.AllocsPerOp - 1; rise > tol {
				regs = append(regs, Regression{n.Name, "allocs_per_op", b.AllocsPerOp, n.AllocsPerOp, rise})
			}
		} else if n.AllocsPerOp > 1 {
			regs = append(regs, Regression{n.Name, "allocs_per_op", b.AllocsPerOp, n.AllocsPerOp, n.AllocsPerOp})
		}
	}
	return regs
}
