// Command shrimpbench is the repository's benchmark: four workloads that
// drive the simulator through the root repro package, with every op
// checked for correctness. By default a run reports end-to-end host
// metrics; with --trace 1 it reports per-layer ones (CPU share by
// package, simulated counts, host time per root call). See README.md.
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Without --workload it
// runs every workload in its own child process and prints a table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	small    bool   // reduced op sizes, for tests
	workdir  string // where the traced run writes its CPU profile
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shrimpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty runs every workload in a child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "timed seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the traced run's CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "shrimpbench: want --trace 0|1 and --seconds > 0")
		return 2
	}
	o.trace = trace == 1
	if o.workload == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "shrimpbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, sum, err := measure(o, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "shrimpbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s seed %d: %016x\n", w.name, o.seed, sum)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "shrimpbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runner runs a workload's ops, checks each, and tallies failures. A
// panic inside an op is a failed op; the run goes on.
type runner struct {
	op    op
	cycle int
	// digests of the first run of each input (i mod cycle); later runs of
	// the same input must reproduce them.
	digests           map[int]uint64
	attempted, failed int
	firstErr          error
}

func newRunner(w workload, f op) *runner {
	return &runner{op: f, cycle: w.cycle, digests: map[int]uint64{}}
}

func (r *runner) safe(i int, sp *spans) (c counts, sum uint64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("op %d panicked: %v", i, p)
		}
	}()
	return r.op(i, sp)
}

// do runs op i and returns its wall time and counts.
func (r *runner) do(i int, sp *spans) (time.Duration, counts) {
	r.attempted++
	t := time.Now()
	c, sum, err := r.safe(i, sp)
	d := time.Since(t)
	if want, ok := r.digests[i%r.cycle]; err == nil && !ok {
		r.digests[i%r.cycle] = sum
	} else if err == nil && want != sum {
		err = fmt.Errorf("op %d: outputs differ from an earlier op with the same inputs", i)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	return d, c
}

// phase runs whole cycles of ops, at least one, until d has passed, and
// returns the per-op wall times in ms and the summed counts.
func (r *runner) phase(d time.Duration, sp *spans) ([]float64, counts) {
	var times []float64
	var total counts
	start := time.Now()
	for i := 0; i == 0 || i%r.cycle != 0 || time.Since(start) < d; i++ {
		t, c := r.do(i, sp)
		times = append(times, float64(t)/1e6)
		total.add(c)
	}
	return times, total
}

// digest folds the first-cycle digests into the run's output digest.
func (r *runner) digest() uint64 {
	d := fnv.New64a()
	fmt.Fprintln(d, r.digests)
	return d.Sum64()
}

// setupReps is the number of times a run sets its workload up.
const setupReps = 5

// measure runs one workload: set-up and one untimed warm-up op, setupReps
// times over, then timed ops for o.seconds, untraced for the end-to-end
// metrics or alternating untraced and traced blocks for the per-layer
// ones. setup_s is the median set-up plus warm-up time; the last set-up
// is the one timed.
func measure(o options, w workload, log io.Writer) (result, uint64, error) {
	var setupSpans *spans
	if o.trace {
		setupSpans = newSpans()
	}
	r := newRunner(w, nil)
	var setups []float64
	for range setupReps {
		r.op = nil // let the previous set-up's machines be collected
		start := time.Now()
		f, err := w.setup(o.seed, o.small, setupSpans)
		if err != nil {
			return result{}, 0, fmt.Errorf("set-up: %w", err)
		}
		r.op = f
		// Every set-up's first op must reproduce the first one's outputs.
		r.do(0, nil)
		setups = append(setups, time.Since(start).Seconds())
	}
	setupS := quantile(setups, 0.5)
	dur := time.Duration(o.seconds * float64(time.Second))
	var metrics map[string]metric
	if o.trace {
		var err error
		if metrics, err = traced(o, r, dur, setupSpans); err != nil {
			return result{}, 0, err
		}
	} else {
		heap := liveHeapMB()
		times, _ := r.phase(dur, nil)
		// Other work on a shared host only ever adds time to an op, and it
		// comes and goes for seconds to minutes at a time, so the fastest op
		// repeats from run to run where the median and p90 do not
		// (README.md, Calibration).
		n, best, p50, p90 := len(times), slices.Min(times), quantile(times, 0.5), quantile(times, 0.9)
		times = nil // the op times are the benchmark's data, not the workload's heap
		metrics = map[string]metric{
			"op_ms_min":    {best, "ms"},
			"setup_s":      {setupS, "s"},
			"heap_live_mb": {max(heap, liveHeapMB()), "MB"},
		}
		fmt.Fprintf(log, "%s: %d timed ops, min %.3f ms, p50 %.3f ms, p90 %.3f ms, set-ups %.4f s, GOMAXPROCS %d, NumCPU %d\n",
			w.name, n, best, p50, p90, setups, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if r.firstErr != nil {
		fmt.Fprintf(log, "%s: %d of %d ops failed; first: %v\n", w.name, r.failed, r.attempted, r.firstErr)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	return res, r.digest(), nil
}

// traceBlocks is the number of untraced/traced block pairs a traced run
// alternates, so host drift during the run lands on both sides of
// trace_overhead_frac.
const traceBlocks = 8

// traced produces the per-layer metrics over d. Untraced blocks give the
// counts, allocations and CPU utilisation; traced blocks run
// under the CPU profiler with spans around every root call. The tracing
// overhead compares the fastest traced and untraced ops.
func traced(o options, r *runner, d time.Duration, setupSpans *spans) (map[string]metric, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	block := d / (2 * traceBlocks)
	sp := newSpans()
	var plainTimes, tracedTimes []float64
	var c counts
	var mallocs, allocBytes uint64
	var wall, cpu time.Duration
	var profiles []string
	defer func() {
		for _, p := range profiles {
			os.Remove(p)
		}
	}()
	for b := 0; b < traceBlocks; b++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, wall0 := cpuTime(), time.Now()
		times, bc := r.phase(block, nil)
		wall += time.Since(wall0)
		cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		plainTimes = append(plainTimes, times...)
		c.add(bc)

		file, err := os.CreateTemp(o.workdir, "cpu-*.pprof")
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, file.Name())
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return nil, err
		}
		times, _ = r.phase(block, sp)
		pprof.StopCPUProfile()
		if err := file.Close(); err != nil {
			return nil, err
		}
		tracedTimes = append(tracedTimes, times...)
	}
	share, err := profileShares(profiles)
	if err != nil {
		return nil, err
	}

	ops := float64(len(plainTimes))
	m := map[string]metric{
		"count.events_per_op":      {float64(c.Events) / ops, "count"},
		"count.packets_per_op":     {float64(c.Packets) / ops, "count"},
		"count.retransmits_per_op": {float64(c.Retransmits) / ops, "count"},
		"count.acks_per_op":        {float64(c.Acks) / ops, "count"},
		"count.peer_downs_per_op":  {float64(c.PeerDowns) / ops, "count"},
		"count.maps_torn_per_op":   {float64(c.MapsTorn) / ops, "count"},
		"count.allocs_per_op":      {float64(mallocs) / ops, "count"},
		"count.alloc_mb_per_op":    {float64(allocBytes) / 1e6 / ops, "MB"},
		"host.cpu_util":            {cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))), "frac"},
		"trace_overhead_frac":      {slices.Min(tracedTimes)/slices.Min(plainTimes) - 1, "frac"},
	}
	for _, l := range layers {
		m["cpu."+l] = metric{share[l], "frac"}
	}
	for _, name := range opCalls {
		m["call."+name+"_ms"] = metric{sp.ms(name) / float64(len(tracedTimes)), "ms"}
	}
	for _, name := range setupCalls {
		m["call."+name+"_ms"] = metric{setupSpans.ms(name) / setupReps, "ms"}
	}
	return m, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap still reachable after forced collections; the
// second one frees what sync.Pool victim caches kept through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runAll runs every workload in its own child process, one at a time, so
// heap, GC state and caches do not carry over, and prints each metric by
// name with its unit.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args, "--workload", w.name)...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err == nil {
			err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		}
		if err != nil {
			fmt.Fprintf(stdout, "%-16s FAILED: %v\n", w.name, err)
			status = 1
			continue
		}
		if !res.Correct {
			status = 1
		}
		fmt.Fprintf(stdout, "%-16s %s; %d of %d ops failed\n", w.name, lines[0], res.Failed, res.Attempted)
		names := make([]string, 0, len(res.Metrics))
		for name := range res.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "  %-26s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
		}
	}
	return status
}
