// shrimp-bench measures the simulator itself rather than the simulated
// hardware: discrete events dispatched per wall-clock second, heap
// allocations per operation, and the ratio of simulated time to wall
// time, for the E2 latency and E3 bandwidth experiments, the 16-node
// mesh workloads, and the parallel sweep harness (sequential versus
// -parallel N workers, fresh machines versus Reset reuse). It emits a
// JSON report (the BENCH_*.json files in the repo root are committed
// snapshots; see DESIGN.md §6–§12 for how each pair is regenerated).
//
//	go run ./cmd/shrimp-bench -o BENCH_1.json
//	go run ./cmd/shrimp-bench -parallel 4 -o BENCH_2.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	shrimp "repro"
	"repro/internal/perf"
)

func main() {
	iters := flag.Int("iters", 20, "measured iterations per benchmark")
	parallel := flag.Int("parallel", 1, "sweep worker-pool size for the sweep/*/par benchmarks (0 = GOMAXPROCS)")
	only := flag.String("only", "", "run only benchmarks whose name contains this substring")
	out := flag.String("o", "", "write JSON report to this file (default stdout)")
	compare := flag.String("compare", "", "baseline report JSON; exit 1 on events/sec or allocs/op regressions beyond -tol")
	tol := flag.Float64("tol", 0.10, "fractional regression tolerance for -compare")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	flag.Parse()

	workers := *parallel
	if workers <= 0 {
		workers = shrimp.DefaultSweepWorkers()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	rep := perf.NewReport("Virtual Memory Mapped Network Interface for the SHRIMP Multicomputer")
	rep.Workers = workers
	run := func(name string, fn func() perf.Sample) {
		if *only != "" && !strings.Contains(name, *only) {
			return
		}
		r := perf.Measure(name, *iters, fn)
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f events/s  %8.1f sim/wall  %10.0f allocs/op  %.3f ms/op\n",
			r.Name, r.EventsPerSec, r.SimWallRatio, r.AllocsPerOp, r.WallNSPerOp/1e6)
	}

	run("latency/eisa", func() perf.Sample { return latencySample(shrimp.GenEISAPrototype) })
	run("latency/xpress", func() perf.Sample { return latencySample(shrimp.GenXpress) })
	run("bandwidth/eisa/1024B", func() perf.Sample { return bandwidthSample(shrimp.GenEISAPrototype, 1024) })
	run("bandwidth/xpress/1024B", func() perf.Sample { return bandwidthSample(shrimp.GenXpress, 1024) })
	run("mesh/neighbors", func() perf.Sample { return meshSample(neighborLinks(4, 4)) })
	run("mesh/hotspot", func() perf.Sample { return meshSample(hotspotLinks(4, 4)) })

	// Machine construction tax: the same latency point on a fresh machine
	// per op versus one machine Reset per op. The allocs/op gap is the
	// payoff of per-worker machine reuse in the sweeps.
	run("reuse/latency/fresh", func() perf.Sample {
		return latencyResultSample(shrimp.MaxLatency(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)))
	})
	reuseM := shrimp.New(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype))
	run("reuse/latency/reset", func() perf.Sample {
		reuseM.Reset()
		return latencyResultSample(shrimp.MeasureStoreLatencyOn(reuseM, 0, 15))
	})

	// Sweep harness: the full 16-node latency sweep and the E3 bandwidth
	// size sweep — the pre-pool baseline (one fresh machine per point),
	// the sequential pool path, and the -parallel worker pool. Outputs
	// are bit-identical (internal/core differential tests); only wall
	// time and allocations differ.
	run("sweep/latency/fresh", latencySweepFreshSample)
	run("sweep/latency/seq", func() perf.Sample { return latencySweepSample(1) })
	run("sweep/latency/par", func() perf.Sample { return latencySweepSample(workers) })
	run("sweep/bandwidth/seq", func() perf.Sample { return bandwidthSweepSample(1) })
	run("sweep/bandwidth/par", func() perf.Sample { return bandwidthSweepSample(workers) })

	// Instrumentation tax: the same sequential latency sweep with the
	// metrics registry and causal spans off versus on. The registry's
	// contract is zero allocations on the hot path and under 10% wall
	// time; BENCH_3.json is the committed snapshot of this pair.
	run("metrics/sweep/off", func() perf.Sample { return metricsSweepSample(false) })
	run("metrics/sweep/on", func() perf.Sample { return metricsSweepSample(true) })

	// Flight-recorder tax: the same metrics-on sequential latency sweep
	// with the recorder disarmed versus sampling every 10 simulated µs.
	// Each sample is a registry snapshot into a preallocated ring, so the
	// contract is zero allocations per cut; BENCH_8.json is the committed
	// snapshot of this pair.
	run("metrics/recorder/off", func() perf.Sample { return recorderSweepSample(false) })
	run("metrics/recorder/on", func() perf.Sample { return recorderSweepSample(true) })

	// Batched CPU interpretation: the instruction-bound compute loop with
	// per-instruction stepping versus the default batch quantum. Events
	// here are retired instructions — the mode-independent unit of work —
	// so the off/on ratio is the interpreter speedup; engine events per
	// op (mode-dependent, the thing batching shrinks) ride along as a
	// metric. BENCH_4.json is the committed snapshot of this pair.
	run("cpu/batch/off", func() perf.Sample { return cpuBoundSample(1) })
	run("cpu/batch/on", func() perf.Sample { return cpuBoundSample(shrimp.DefaultConfig().CPU.MaxBatch) })

	// Superblock trace cache and spin fast-forward: the same compute loop
	// with batching on in both modes, so the off/on ratio isolates the
	// trace-dispatch speedup on top of BENCH_4's batching. BENCH_6.json is
	// the committed snapshot of this pair.
	run("cpu/trace/off", func() perf.Sample { return cpuTraceSample(false) })
	run("cpu/trace/on", func() perf.Sample { return cpuTraceSample(true) })

	// Fault-subsystem tax: the same deliberate-update stream with the
	// fault hooks absent versus armed at zero loss (seeded injector,
	// reliable delivery, ring CRC). The off path must stay within 10% of
	// the fault-free baseline and allocation-free (the ci.sh
	// BenchmarkStoreNoFaults guard); BENCH_5.json is the committed
	// snapshot of this pair.
	run("faults/off", func() perf.Sample { return faultsSample(false) })
	run("faults/on", func() perf.Sample { return faultsSample(true) })

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *compare != "" {
		f, err := os.Open(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		base, err := perf.ReadReport(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		regs := perf.Compare(base, rep, *tol)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "regressions vs %s (tolerance %.0f%%):\n", *compare, 100**tol)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "no regressions vs %s (tolerance %.0f%%)\n", *compare, 100**tol)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// latencySample measures the E2 corner-to-corner automatic-update store
// latency on a fresh 16-node machine. Events/SimTime are the whole-run
// engine totals (boot handshake included).
func latencySample(gen shrimp.Generation) perf.Sample {
	return latencyResultSample(shrimp.MaxLatency(shrimp.ConfigFor(4, 4, gen)))
}

func latencyResultSample(r shrimp.LatencyResult) perf.Sample {
	return perf.Sample{
		Events:  r.Events,
		SimTime: r.SimEnd,
		Metrics: map[string]float64{
			"latency_sim_us": r.Latency.Microseconds(),
			"hops":           float64(r.Hops),
		},
	}
}

// bandwidthSample measures E3 deliberate-update bandwidth at the given
// transfer size, streaming 256 KB between two nodes.
func bandwidthSample(gen shrimp.Generation, size int) perf.Sample {
	r := shrimp.MeasureDeliberateBandwidth(shrimp.ConfigFor(2, 1, gen), 0, 1, size, 256*1024)
	return perf.Sample{
		Events:  r.Events,
		SimTime: r.SimEnd,
		Metrics: map[string]float64{"bandwidth_sim_mbps": r.MBps},
	}
}

// latencySweepFreshSample is the historical sweep shape: one freshly
// constructed machine per point, sequential — the baseline the pooled
// sweeps (seq = Reset reuse, par = reuse + workers) improve on.
func latencySweepFreshSample() perf.Sample {
	cfg := shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)
	var s perf.Sample
	for dst := 1; dst < cfg.NodeCount(); dst++ {
		r := shrimp.MeasureStoreLatency(cfg, 0, dst)
		s.Events += r.Events
		s.SimTime += r.SimEnd
	}
	s.Metrics = map[string]float64{
		"points":  float64(cfg.NodeCount() - 1),
		"workers": 1,
	}
	return s
}

// latencySweepSample runs the whole 15-point E2 sweep on the given
// worker count; Events/SimTime sum the per-point engine totals.
func latencySweepSample(workers int) perf.Sample {
	results := shrimp.LatencySweepParallel(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype), workers)
	var s perf.Sample
	for _, r := range results {
		s.Events += r.Events
		s.SimTime += r.SimEnd
	}
	s.Metrics = map[string]float64{
		"points":  float64(len(results)),
		"workers": float64(workers),
	}
	return s
}

// metricsSweepSample is latencySweepSample(1) with Config.Metrics
// toggled — the off/on pair measures the instrumentation overhead.
func metricsSweepSample(enabled bool) perf.Sample {
	cfg := shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)
	cfg.Metrics = enabled
	results := shrimp.LatencySweep(cfg)
	var s perf.Sample
	for _, r := range results {
		s.Events += r.Events
		s.SimTime += r.SimEnd
	}
	on := 0.0
	if enabled {
		on = 1
	}
	s.Metrics = map[string]float64{
		"points":  float64(len(results)),
		"metrics": on,
	}
	return s
}

// recorderSweepSample is metricsSweepSample(true) with the flight
// recorder toggled — the off/on pair measures the sampling overhead on
// top of the registry itself (the metrics/sweep pair).
func recorderSweepSample(armed bool) perf.Sample {
	cfg := shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype)
	cfg.Metrics = true
	on := 0.0
	if armed {
		cfg.Recorder = shrimp.RecorderConfig{Interval: 10 * shrimp.Microsecond}
		on = 1
	}
	results := shrimp.LatencySweep(cfg)
	var s perf.Sample
	for _, r := range results {
		s.Events += r.Events
		s.SimTime += r.SimEnd
	}
	s.Metrics = map[string]float64{
		"points":   float64(len(results)),
		"recorder": on,
	}
	return s
}

// bandwidthSweepSample runs the E3 transfer-size sweep (64 B .. 4 KB,
// 128 KB each) on the given worker count.
func bandwidthSweepSample(workers int) perf.Sample {
	sizes := []int{64, 128, 256, 512, 1024, 2048, 4096}
	results := shrimp.BandwidthSweepParallel(shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype), sizes, 128*1024, workers)
	var s perf.Sample
	for _, r := range results {
		s.Events += r.Events
		s.SimTime += r.SimEnd
	}
	s.Metrics = map[string]float64{
		"points":  float64(len(results)),
		"workers": float64(workers),
	}
	return s
}

// faultsSample streams 256 KB of deliberate updates with the fault
// subsystem off or armed at zero rates with reliable delivery — the
// off/on gap is the price of sequence tagging, retained-payload
// bookkeeping, ACK traffic and the ring CRC on a loss-free fabric.
func faultsSample(armed bool) perf.Sample {
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenXpress)
	on := 0.0
	if armed {
		cfg.Faults = shrimp.FaultConfig{Seed: 1729, Reliable: true}
		on = 1
	}
	r := shrimp.MeasureFaultyTransfer(cfg, 0, 1, 1024, 256*1024)
	return perf.Sample{
		Events:  r.Events,
		SimTime: r.Elapsed,
		Metrics: map[string]float64{
			"goodput_sim_mbps": r.GoodputMBps,
			"faults":           on,
			"acks":             float64(r.AcksSent),
		},
	}
}

// cpuBoundSample runs the instruction-bound compute loop at the given
// batch quantum. Sample.Events is instructions retired, identical in
// both modes; the engine event count is reported as a metric.
func cpuBoundSample(maxBatch int) perf.Sample {
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	cfg.CPU.MaxBatch = maxBatch
	// Pin the trace cache off so this pair keeps measuring batching
	// alone; the cpu/trace pair layers superblock dispatch on top.
	cfg.CPU.TraceCache = false
	cfg.CPU.SpinFastForward = false
	r := shrimp.MeasureCPUBound(cfg, 20_000)
	return perf.Sample{
		Events:  r.Instructions,
		SimTime: r.SimEnd,
		Metrics: map[string]float64{
			"engine_events_per_op": float64(r.EngineEvents),
			"cpu_sim_us":           r.CPUTime.Microseconds(),
			"max_batch":            float64(maxBatch),
		},
	}
}

// cpuTraceSample runs the compute loop at the default batch quantum with
// the superblock trace cache (and spin fast-forward) off or on. Events
// are retired instructions in both modes, so events/s is instr/s.
func cpuTraceSample(trace bool) perf.Sample {
	cfg := shrimp.ConfigFor(2, 1, shrimp.GenEISAPrototype)
	cfg.CPU.TraceCache = trace
	cfg.CPU.SpinFastForward = trace
	r := shrimp.MeasureCPUBound(cfg, 20_000)
	on := 0.0
	if trace {
		on = 1
	}
	return perf.Sample{
		Events:  r.Instructions,
		SimTime: r.SimEnd,
		Metrics: map[string]float64{
			"engine_events_per_op": float64(r.EngineEvents),
			"cpu_sim_us":           r.CPUTime.Microseconds(),
			"trace":                on,
		},
	}
}

func neighborLinks(w, h int) [][2]int {
	var out [][2]int
	for i := 0; i < w*h; i++ {
		x, y := i%w, i/w
		j := y*w + (x+1)%w
		if j != i {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

func hotspotLinks(w, h int) [][2]int {
	var out [][2]int
	for i := 1; i < w*h; i++ {
		out = append(out, [2]int{i, 0})
	}
	return out
}

// meshSample drives the 16-node channel workload (the same traffic as
// BenchmarkMeshWorkload) and reports whole-run engine totals.
func meshSample(links [][2]int) perf.Sample {
	m := shrimp.New(shrimp.ConfigFor(4, 4, shrimp.GenEISAPrototype))
	eps := make([]shrimp.Endpoint, 16)
	for i := range eps {
		eps[i] = shrimp.NewEndpoint(m.Node(i))
	}
	chans := make([]*shrimp.Channel, len(links))
	for i, l := range links {
		ch, err := shrimp.NewChannel(m, eps[l[0]], eps[l[1]], 2)
		if err != nil {
			panic(err)
		}
		chans[i] = ch
	}
	const rounds, size = 4, 2048
	payload := make([]byte, size)
	start := m.Now()
	for r := 0; r < rounds; r++ {
		for _, ch := range chans {
			if err := ch.Send(payload); err != nil {
				panic(err)
			}
		}
		for _, ch := range chans {
			if _, err := ch.Recv(); err != nil {
				panic(err)
			}
		}
	}
	m.RunUntilIdle(2_000_000_000)
	elapsed := m.Now() - start
	mbps := float64(rounds*len(links)*size) / 1e6 / elapsed.Seconds()
	return perf.Sample{
		Events:  m.Fired(),
		SimTime: m.Now(),
		Metrics: map[string]float64{"machine_mbps": mbps},
	}
}
