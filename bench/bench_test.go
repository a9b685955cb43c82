package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	shrimp "repro"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at reduced size, untraced, and one of
// them traced (the per-layer metrics come from the same code for every
// workload). Each run must pass and report exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		o := options{workload: w.name, seed: 1, seconds: 0.05, small: true}
		res := smoke(t, o, w, endToEnd)
		if res.Metrics["setup_s"].Value <= 0 {
			t.Errorf("%s: setup_s = %v", w.name, res.Metrics["setup_s"].Value)
		}
	}
	w, _ := findWorkload("allreduce-16x16")
	// Traced blocks need CPU samples at the profiler's 100 Hz.
	o := options{workload: w.name, seed: 1, seconds: 1, trace: true, small: true, workdir: t.TempDir()}
	res := smoke(t, o, w, perLayer)
	cpu := 0.0
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "cpu.") {
			cpu += m.Value
		}
	}
	if math.Abs(cpu-1) > 0.01 {
		t.Errorf("cpu.* shares sum to %v", cpu)
	}
}

func smoke(t *testing.T, o options, w workload, want map[string]string) result {
	t.Helper()
	res, _, err := measure(o, w, os.Stderr)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, o.trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("%s trace=%v: %d of %d ops failed", w.name, o.trace, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, o.trace, len(res.Metrics), len(want))
	}
	for name, m := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q", name)
		}
		if unit, ok := want[name]; !ok || unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json has %q (declared %v)", w.name, name, m.Unit, unit, ok)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
		}
	}
	return res
}

// runDigest sets a workload up at reduced size and returns the digest of
// one cycle of ops.
func runDigest(t *testing.T, w workload, seed uint64) uint64 {
	t.Helper()
	f, err := w.setup(seed, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, f)
	r.phase(0, nil)
	if r.firstErr != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, r.firstErr)
	}
	return r.digest()
}

// TestDigestsFollowSeed checks that a seed fixes a workload's outputs and
// that only the seeded workloads change with it.
func TestDigestsFollowSeed(t *testing.T) {
	seeded := map[string]bool{"allreduce-16x16": true, "faults": true}
	for _, w := range workloads {
		a, again, b := runDigest(t, w, 1), runDigest(t, w, 1), runDigest(t, w, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave digests %016x and %016x", w.name, a, again)
		}
		if seeded[w.name] && a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %016x", w.name, a)
		}
		if !seeded[w.name] && a != b {
			t.Errorf("%s uses fixed inputs, but seeds 1 and 2 gave %016x and %016x", w.name, a, b)
		}
	}
}

// TestDoctoredResultsFail feeds each check a result with one field
// changed from the paper's value and expects a failure.
func TestDoctoredResultsFail(t *testing.T) {
	table := shrimp.MeasureTable1(shrimp.GenEISAPrototype)
	base := shrimp.MeasureBaseline(shrimp.GenEISAPrototype)
	cfg := shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)
	sweep, worst := shrimp.LatencySweep(cfg), shrimp.MaxLatency(cfg)
	bw := shrimp.BandwidthSweep(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), bandwidthSizes, 64*1024)
	pair := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	au := shrimp.AUBandwidthSweep(pair, []shrimp.Mode{shrimp.SingleWriteAU, shrimp.BlockedWriteAU}, 4000, 1)
	merge := shrimp.MergeWindowSweep(pair, []shrimp.Time{20 * shrimp.Nanosecond, 50 * shrimp.Nanosecond,
		150 * shrimp.Nanosecond, 500 * shrimp.Nanosecond, 2 * shrimp.Microsecond}, 100*shrimp.Nanosecond, 256, 1)
	plan := []shrimp.NodeFault{{Node: 3, Kind: shrimp.NodeCrash}}
	avail := shrimp.AvailabilityPoint{Crashes: 1, Flows: 16, GoodFlows: 14}

	// The undoctored results pass.
	for name, err := range map[string]error{
		"table1":    checkTable1(table),
		"baseline":  checkBaseline(base),
		"latency":   checkLatency(sweep, worst, paperWorstLatency[0]),
		"bandwidth": checkBandwidth(bw, paperPlateau[0]),
		"ablations": checkAblations(au, merge),
		"avail":     checkAvailability(avail, plan, 16),
	} {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	doctored := map[string]func() error{
		"table1 row": func() error {
			rows := append([]shrimp.Overhead(nil), table...)
			rows[6].Dest++
			return checkTable1(rows)
		},
		"table1 short": func() error { return checkTable1(table[:6]) },
		"baseline": func() error {
			b := base
			b.BaseCrecv.Kernel--
			return checkBaseline(b)
		},
		"worst latency": func() error {
			w := worst
			w.Latency += shrimp.Nanosecond
			return checkLatency(sweep, w, paperWorstLatency[0])
		},
		"sweep maximum": func() error {
			s := append([]shrimp.LatencyResult(nil), sweep...)
			s[3].Latency = 3 * shrimp.Microsecond
			return checkLatency(s, worst, paperWorstLatency[0])
		},
		"plateau": func() error {
			b := append([]shrimp.BandwidthResult(nil), bw...)
			b[len(b)-1].MBps = 30.5
			return checkBandwidth(b, paperPlateau[0])
		},
		"packets per store": func() error {
			a := append([]shrimp.AUBandwidthResult(nil), au...)
			a[1].PktPerStore = 0.016
			return checkAblations(a, merge)
		},
		"merge window": func() error {
			m := append([]shrimp.MergeWindowResult(nil), merge...)
			m[2].PktPerStore = 1
			return checkAblations(au, m)
		},
		"bad words": func() error {
			a := avail
			a.BadWords = 1
			return checkAvailability(a, plan, 16)
		},
		"good flows": func() error {
			a := avail
			a.GoodFlows = 15
			return checkAvailability(a, plan, 16)
		},
		"machine check": func() error {
			a := avail
			a.Err = "retry budget exhausted"
			return checkAvailability(a, plan, 16)
		},
	}
	for name, f := range doctored {
		if f() == nil {
			t.Errorf("%s: doctored result passed its check", name)
		}
	}
}

// TestRunnerCountsFailures checks that a failed check, a panic and an op
// that does not reproduce its earlier outputs each count as one failed
// op, and that the run goes on.
func TestRunnerCountsFailures(t *testing.T) {
	w := workload{name: "doctored", cycle: 2}
	r := newRunner(w, func(i int, _ *spans) (counts, uint64, error) {
		switch i {
		case 3:
			return counts{}, 0, errors.New("check failed")
		case 4:
			panic("machine check")
		case 5:
			return counts{Events: 1}, 99, nil // op 1's inputs, other outputs
		}
		return counts{Events: 1}, uint64(i % 2), nil
	})
	for i := 0; i < 8; i++ {
		r.do(i, nil)
	}
	if r.attempted != 8 || r.failed != 3 || r.firstErr == nil {
		t.Fatalf("attempted %d, failed %d, first error %v; want 8, 3, non-nil", r.attempted, r.failed, r.firstErr)
	}
}

// TestTraceAttribution decodes a committed `go tool pprof -traces` text.
// Runtime helpers count toward the innermost internal package that
// called them, and a stack with no repro frame counts as gc.
func TestTraceAttribution(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byLayer, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shares(byLayer)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":   0.20, // mallocgc under sim.(*Engine).push
		"vm":    0.20, // memmove under vm.Translate, not kernel or msg
		"isa":   0.15, // an inlined leaf frame
		"exp":   0.25, // a generic frame whose name holds spaces
		"gc":    0.10, // background mark worker, no repro frame
		"bench": 0.05, // runtime under the root package and main only
		"other": 0.05, // an internal package outside the layer list
	}
	sum := 0.0
	for _, l := range layers {
		sum += got[l]
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("cpu.%s = %v, want %v", l, got[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := shares(map[string]time.Duration{}); err == nil {
		t.Error("an empty profile produced shares")
	}
}
