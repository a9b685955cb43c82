#!/bin/sh
# ci.sh — the repo's gate: static checks, full build, race-enabled
# tests, exact event-count pins, a boot-footprint pin, zero-allocation
# checks on the hot paths, byte-identity checks on the CLIs, runs of the
# examples, exit-status checks on bad CLI flags and on a failed fault
# sweep point, and six short fuzzing runs. Every gate but the fuzzing
# runs is deterministic; those explore new inputs on each run, and a
# failure is a real divergence between a fast path and its reference —
# the CPU's against per-instruction stepping, UserWriteBytes' store runs
# against one store per word, the cache against a flat shadow of memory,
# the chunked NIPT against a flat table of one entry per page, DRAM
# frames that grow to their highest written byte against a flat byte
# array, or the event queue's head slot and heap against a
# container/heap queue — so fix it, then commit the failing input as a
# seed under the package's testdata/fuzz/. Wall time is measured by the
# benchmark in bench/ (bash bench/run.sh, protocol in bench/README.md)
# and gated by nothing in this script.
set -eux

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# zero_alloc PKG PATTERN BENCHTIME runs the benchmarks in PKG matching
# PATTERN with -benchmem. It fails unless at least one row matched and
# every matched row reports 0 allocs/op, so a renamed benchmark or a
# mistyped pattern fails too.
zero_alloc() {
	go test -run '^$' -bench "$2" -benchtime "$3" -benchmem "$1" > "$scratch/bench.txt"
	awk '/^Benchmark/ { n++; if (!/ 0 allocs\/op/) bad = 1 } END { exit bad || n == 0 }' "$scratch/bench.txt"
}

go vet ./...
test -z "$(gofmt -l *.go bench cmd examples internal)"
# Every RunUntilIdle result is checked: a machine check or a blown event
# budget comes back as its error, so a call that drops it hides both.
# Allowed forms assign the error or return it; the grep prints the rest.
test -z "$(grep -rnE 'RunUntilIdle\(' --include='*.go' . | grep -vE 'err :?= |return |func \(m \*Machine\) RunUntilIdle|^\S+:[0-9]+:\s*//')"
go build ./...
# Among the race tests, TestParallelSweepsMatchSequential drives the
# sweep worker pool with more points than workers (15 latency points on
# 4 workers, 7 bandwidth sizes on 3) and asserts parallel == sequential.
go test -race ./...
# The benchmark in bench/ is its own Go module, so ./... above never
# reaches it: run its smoke, digest and check tests explicitly.
go -C bench test ./...
# Event-count pins: the 16-node latency sweep with metrics off, on, and
# with the flight recorder sampling every 10 µs; a 256 KB transfer with
# and without reliable delivery (engine events and ACKs); the 16-node
# availability run at one and two crashes; and the §4.1 compute loop
# through a blocked-write and a single-write mapping, each stepped per
# instruction and at the default CPU config (most single-write batches
# end inside a pure run, where a packet event falls). The counts are
# exact, so instrumentation that schedules events, a change to the
# reliable protocol or to the order of same-instant events, or a
# batching regression, such as a pure run that yields an op early or
# late, fails here.
go test -count 1 -run TestEventCountPins ./internal/core
# Boot-footprint pin: NIPT entries of at most 24 bytes; a 16x16 machine
# at the allreduce benchmark's 1,534 pages/node built in under 2.5 MB and
# 21,000 heap objects, and a 32x32 one at 3,070 pages/node in under
# 9.5 MB and 85,000; no NIPT chunk after New and no kernel ring state
# after New or Reset. Allocation counts are deterministic, so a wider
# table, NIPT entries or frame slots built for pages never written, ring
# entries installed before a pair talks, eagerly built per-peer state or
# cache line storage built before the first fill fails here.
go test -count 1 -run TestBootFootprint ./internal/core
# Event-queue guard: scheduling and firing, on the Handler path and the
# closure path, at every benchmarked heap depth, must stay
# allocation-free (TestScheduleZeroAlloc, run by the race tests above,
# pins the same contract).
zero_alloc ./internal/sim '^BenchmarkEngine$' 100x
# Observability guard: the metrics registry and causal spans must stay
# allocation-free on the hot path (counters, gauges, histograms, span
# lifecycle all land in preallocated arrays). Run without -race — the
# race runtime itself allocates and would mask a regression.
go test -run TestInstrumentationZeroAlloc -count 1 ./internal/obs
zero_alloc ./internal/obs BenchmarkEngineMetrics 100x
# CPU guards: the differential suites (the fast path — batching,
# superblock dispatch and fused terminators — must be bit-identical to
# per-instruction stepping) run under -race above;
# here the zero-alloc contract — both CPU paths (the fast one also with
# an engine event every 389 ns, so pure runs end on events as well as on
# the quantum), the fused store path and the bus Write32/Read32/
# command-read paths must not touch the heap — and the trace cache must
# actually serve the §5 loop workload (hit-rate floor asserted by the
# test).
zero_alloc ./internal/isa '^Benchmark(StepPerInstruction|TraceDispatch|TraceDispatchEvents)$' 1000x
zero_alloc ./internal/bus BenchmarkBus 1000x
zero_alloc ./internal/msg BenchmarkFusedStore 200x
go test -run TestTraceCacheHitRateFloor -count 1 ./internal/msg
# Fuzzing: random programs with an external memory write, run on the
# fast path at quanta 3 and 64 against per-instruction stepping (the
# committed seed corpus already ran with the unit tests above).
go test -run '^$' -fuzz '^FuzzFastPathMatchesReference$' -fuzztime 15s ./internal/isa
# Random harness writes on twin machines, one through UserWriteBytes'
# store runs and one through the per-word reference: page kinds,
# offsets, lengths, background traffic, FIFO stalls and telemetry.
go test -run '^$' -fuzz '^FuzzUserWriteBytesMatchesPerWord$' -fuzztime 10s ./internal/core
# Random cache geometries and access sequences against a flat shadow of
# memory: loads, stores, store runs, byte reads and locked RMWs on
# write-through and write-back pages, DMA writes, flushes and resets.
go test -run '^$' -fuzz '^FuzzCacheCoherence$' -fuzztime 10s ./internal/cache
# Random NIPT writes, resets, reads and out-of-range pages on the
# chunked table against the flat table it replaced: every page must read
# the same, reads must build no chunk, and Entry pointers must outlive
# resets.
go test -run '^$' -fuzz '^FuzzTableMatchesFlat$' -fuzztime 10s ./internal/nipt
# Random writes, reads, page zeroing and resets on DRAM against a flat
# byte array: every byte must read the same, each frame must be as long
# as its page's highest byte written, and reads must build nothing.
go test -run '^$' -fuzz '^FuzzMemoryMatchesFlat$' -fuzztime 10s ./internal/phys
# Random schedules (on both paths, from inside handlers, at instants
# that tie with the head slot's event), Steps, RunUntils, Advances and
# Resets on the engine against a container/heap queue with no head
# slot: the same firings in the same order, clock and counters.
go test -run '^$' -fuzz '^FuzzEngineMatchesReference$' -fuzztime 10s ./internal/sim
# Harness copy guards: Node.UserReadBytes (micro-TLB translation,
# line-granular cache reads; the Go-level Channel.Recv path) and
# Node.UserWriteBytes (store runs through cache, bus and NIC; the
# Channel.Send path) must stay allocation-free.
zero_alloc ./internal/core BenchmarkUserReadBytes 1000x
zero_alloc ./internal/core BenchmarkUserWriteBytes 1000x
# Machine reuse guard: a sweep worker's Machine.Reset (a 4x4 machine of
# each generation, dirtied by a latency probe) reuses every allocation.
zero_alloc ./internal/core BenchmarkMachineReset 1000x
# Fault-injection guards. The deterministic fault sweep must be
# race-free with parallel workers and byte-stable run to run, and the
# steady-state store datapath must stay allocation-free both without an
# injector and with one armed at zero rates.
go run -race ./cmd/shrimp-faults -workers 4 -bytes 32768 > "$scratch/faults-a.txt"
go run ./cmd/shrimp-faults -workers 1 -bytes 32768 > "$scratch/faults-b.txt"
cmp "$scratch/faults-a.txt" "$scratch/faults-b.txt"
zero_alloc ./internal/nic BenchmarkStore 1000x
# Crash-survival guards. The chaos soak (16 nodes, two staggered
# mid-workload crashes, Survivable armed) and the rest of the
# degraded-mode suite run under the race detector at both ends of the
# scheduler-parallelism range; the availability sweep must print
# byte-identically run to run; and the peer-down emit suppression (the
# degraded-mode hot path) must stay allocation-free.
GOMAXPROCS=1 go test -race -count 1 -run 'TestCrashSurvival|TestSurvivable|TestHeartbeat|TestShootdownCrash|TestDestroyProcessSurvives|TestReestablishDegrades' ./internal/core
GOMAXPROCS=8 go test -race -count 1 -run 'TestCrashSurvival|TestSurvivable|TestHeartbeat|TestShootdownCrash|TestDestroyProcessSurvives|TestReestablishDegrades' ./internal/core
go run -race ./cmd/shrimp-faults -avail 0,1,2 -w 4 -h 4 > "$scratch/avail-a.txt"
go run ./cmd/shrimp-faults -avail 0,1,2 -w 4 -h 4 > "$scratch/avail-b.txt"
cmp "$scratch/avail-a.txt" "$scratch/avail-b.txt"
zero_alloc ./internal/nic BenchmarkStorePeerDown 1000x
# Flight-recorder guards. Sampling must be allocation-free — each cut
# snapshots the registry into a preallocated delta ring (run without
# -race; the race runtime allocates and would mask a regression).
go test -run TestRecorderZeroAlloc -count 1 ./internal/obs
zero_alloc ./internal/obs BenchmarkRecorderSample 1000x
# Stall guards under the race detector: a crashed receiver must end in
# the retry-budget machine check, and a machine that never quiesces
# must return an error wrapping sim.ErrBudget from Settle and
# RunUntilIdle, not panic.
go test -race -count 1 -run 'TestNodeCrashEscalatesToMachineCheck|TestSettleBudgetError' ./internal/core
# OpenMetrics determinism: two one-shot shrimp-top runs must compare
# byte-identical.
go run ./cmd/shrimp-top -mesh 2x2 -rounds 2 > "$scratch/top-a.prom"
go run ./cmd/shrimp-top -mesh 2x2 -rounds 2 > "$scratch/top-b.prom"
cmp "$scratch/top-a.prom" "$scratch/top-b.prom"
# Timeline determinism: two 16-node shrimp-trace runs with recorder
# counter tracks must write byte-identical Chrome trace JSON (its
# validity is asserted by TestTraceJSONSixteenNodes and
# TestWriteChromeTraceRecorderTracks).
go run ./cmd/shrimp-trace -rounds 1 -interval 10us -o "$scratch/trace-a.json"
go run ./cmd/shrimp-trace -rounds 1 -interval 10us -o "$scratch/trace-b.json"
cmp "$scratch/trace-a.json" "$scratch/trace-b.json"
# Examples: each of the eight must run to completion and exit 0.
go build -o "$scratch/bin/" ./cmd/... ./examples/...
for ex in examples/*/; do
	"$scratch/bin/$(basename "$ex")" > /dev/null
done
# Bad flags: each CLI must reject a bad value with one line on stderr
# and exit status exactly 1 — not run anyway (0) or panic (2). The
# binaries run directly, because go run reports a panic's exit 2 as 1.
rejects() {
	cli=$1
	shift
	status=0
	"$scratch/bin/$cli" "$@" > /dev/null 2> "$scratch/stderr.txt" || status=$?
	test "$status" -eq 1 && test "$(wc -l < "$scratch/stderr.txt")" -eq 1
}
rejects shrimp-sim -gen foo
rejects shrimp-trace -bytes -5
rejects shrimp-trace -interval -5us
rejects shrimp-trace -spans -5
rejects shrimp-top -rounds 0
rejects shrimp-table1 -gen foo
rejects shrimp-faults -gen EISA
rejects shrimp-report -total 100
rejects shrimp-hwperf -exp nope
rejects shrimp-hwperf -exp latency -mesh 1x1
rejects shrimp-hwperf -mesh 40x40
rejects shrimp-hwperf -parallel -3
rejects shrimp-report -parallel -1
rejects shrimp-faults -workers -1
rejects shrimp-sim -mesh 40x40
rejects shrimp-trace -mesh 40x40
rejects shrimp-faults -w 1 -h 1
rejects shrimp-faults -avail 1 -crashat 0
rejects shrimp-faults -avail 2 -crashat 1 -stagger -5
rejects shrimp-faults -avail 1 -words 5000
rejects shrimp-faults -avail 1 -rounds 0
rejects shrimp-faults -avail 1 -crashat 100000000000000
# A fault plan that stops a sweep point's set-up prints a FAILED row on
# stdout and exits 1, not a panic's 2: at 100% loss the map RPC itself
# exhausts its retry budget.
status=0
"$scratch/bin/shrimp-faults" -drops 1000000 -bytes 4096 > "$scratch/failed.txt" || status=$?
test "$status" -eq 1
grep -q FAILED "$scratch/failed.txt"
