#!/bin/sh
# ci.sh — the repo's gate: static checks, full build, race-enabled tests,
# and smoke runs of the microbenchmarks; the hot-path rows are grepped
# for 0 allocs/op to enforce the zero-allocation contracts.
set -eux

go vet ./...
test -z "$(gofmt -l *.go bench cmd examples internal)"
go build ./...
go test -race ./...
# The benchmark in bench/ is its own Go module, so ./... above never
# reaches it: run its smoke, digest and check tests explicitly.
go -C bench test ./...
# Event-queue guard: scheduling and firing, on the Handler path and the
# closure path, at every benchmarked heap depth, must stay
# allocation-free (TestScheduleZeroAlloc, run by the race tests above,
# pins the same contract). An empty benchmark listing fails too.
go test -run '^$' -bench BenchmarkEngine -benchtime 100x -benchmem ./internal/sim | grep 'BenchmarkEngine/' | awk '!/ 0 allocs\/op/ {bad=1} END {exit bad || NR == 0}'
# Parallel sweep smoke: drive the worker pool with more points than
# workers under the race detector (report discarded; the differential
# tests assert parallel == sequential output).
go run -race ./cmd/shrimp-bench -parallel 4 -iters 2 -only sweep -o /dev/null
# Observability guard: the metrics registry and causal spans must stay
# allocation-free on the hot path (counters, gauges, histograms, span
# lifecycle all land in preallocated arrays). Run without -race — the
# race runtime itself allocates and would mask a regression.
go test -run TestInstrumentationZeroAlloc -count 1 ./internal/obs
go test -run '^$' -bench BenchmarkEngineMetrics -benchtime 100x ./internal/obs
# Batched-interpretation guards: the differential tests (batched versus
# per-instruction stepping must be bit-identical) run under -race above;
# here the zero-alloc contract — the batched step path and the bus
# Write32/Read32/command-read paths must not touch the heap.
go test -run '^$' -bench 'BenchmarkStepBatched' -benchtime 1000x -benchmem ./internal/isa | grep 'BenchmarkStepBatched' | grep -q ' 0 allocs/op'
# Trace-cache guards: superblock dispatch and the fused store path must
# stay allocation-free, and the trace cache must actually serve the §5
# loop workload (hit-rate floor asserted by the test). The differential
# suites (trace on == off, spin fast-forward == literal spinning) run
# under -race above.
go test -run '^$' -bench 'BenchmarkTraceDispatch' -benchtime 1000x -benchmem ./internal/isa | grep 'BenchmarkTraceDispatch' | grep -q ' 0 allocs/op'
go test -run '^$' -bench 'BenchmarkFusedStore' -benchtime 200x -benchmem ./internal/msg | grep 'BenchmarkFusedStore' | grep -q ' 0 allocs/op'
# Harness copy-out guard: Node.UserReadBytes (micro-TLB translation,
# line-granular cache reads; the Go-level Channel.Recv path) must stay
# allocation-free.
go test -run '^$' -bench 'BenchmarkUserReadBytes' -benchtime 1000x -benchmem ./internal/core | grep 'BenchmarkUserReadBytes' | grep -q ' 0 allocs/op'
go test -run TestTraceCacheHitRateFloor -count 1 ./internal/msg
go test -run '^$' -bench 'BenchmarkBus' -benchtime 1000x -benchmem ./internal/bus | grep 'BenchmarkBus' | awk '!/ 0 allocs\/op/ {bad=1} END {exit bad}'
# Fault-injection guards. The deterministic fault sweep must be
# race-free with parallel workers and byte-stable run to run; the
# steady-state store datapath must stay allocation-free both without an
# injector and with one armed at zero rates; and the faults/off|on
# bench pair is gated against the committed BENCH_5.json snapshot
# (<10% overhead regression on the disabled path).
go run -race ./cmd/shrimp-faults -workers 4 -bytes 32768 > /tmp/shrimp-faults-a.txt
go run ./cmd/shrimp-faults -workers 1 -bytes 32768 > /tmp/shrimp-faults-b.txt
cmp /tmp/shrimp-faults-a.txt /tmp/shrimp-faults-b.txt
go test -run '^$' -bench 'BenchmarkStore' -benchtime 1000x -benchmem ./internal/nic | grep 'BenchmarkStore' | awk '!/ 0 allocs\/op/ {bad=1} END {exit bad}'
go run ./cmd/shrimp-bench -iters 3 -only faults -compare BENCH_5.json -tol 0.5 -o /dev/null
# Crash-survival guards. The chaos soak (16 nodes, two staggered
# mid-workload crashes, Survivable armed) and the rest of the
# degraded-mode suite run under the race detector at both ends of the
# scheduler-parallelism range; the availability sweep must print
# byte-identically run to run; and the peer-down emit suppression (the
# degraded-mode hot path) must stay allocation-free.
GOMAXPROCS=1 go test -race -count 1 -run 'TestCrashSurvival|TestSurvivable|TestHeartbeat|TestShootdownCrash|TestDestroyProcessSurvives|TestReestablishDegrades' ./internal/core
GOMAXPROCS=8 go test -race -count 1 -run 'TestCrashSurvival|TestSurvivable|TestHeartbeat|TestShootdownCrash|TestDestroyProcessSurvives|TestReestablishDegrades' ./internal/core
go run -race ./cmd/shrimp-faults -avail 0,1,2 -w 4 -h 4 > /tmp/shrimp-avail-a.txt
go run ./cmd/shrimp-faults -avail 0,1,2 -w 4 -h 4 > /tmp/shrimp-avail-b.txt
cmp /tmp/shrimp-avail-a.txt /tmp/shrimp-avail-b.txt
go test -run '^$' -bench 'BenchmarkStorePeerDown' -benchtime 1000x -benchmem ./internal/nic | grep 'BenchmarkStorePeerDown' | grep -q ' 0 allocs/op'
# Simulator-performance regression gate: rerun the benchmark suite and
# compare events/sec and allocs/op against the committed BENCH_3.json
# snapshot. Few iterations keep this a smoke test; BENCH_4.json is the
# full committed snapshot. The tolerance is wide because wall-clock
# events/sec swings with shared-runner load — this gate is a tripwire
# for catastrophic regressions (half-speed, doubled allocations); the
# strict perf contracts are the deterministic guards above (0 allocs/op
# greps, bit-identity differential tests).
go run ./cmd/shrimp-bench -iters 3 -compare BENCH_3.json -tol 0.5 -o /dev/null
# Trace-cache regression gate: the cpu/batch and cpu/trace pairs against
# the committed BENCH_6.json snapshot (same wide tripwire tolerance).
go run ./cmd/shrimp-bench -iters 3 -only cpu/ -compare BENCH_6.json -tol 0.5 -o /dev/null
# Flight-recorder guards. Sampling must be allocation-free — each cut
# snapshots the registry into a preallocated delta ring (run without
# -race; the race runtime allocates and would mask a regression) — and
# the recorder/off|on bench pair is gated against the committed
# BENCH_8.json snapshot (same wide tripwire tolerance as BENCH_3).
go test -run TestRecorderZeroAlloc -count 1 ./internal/obs
go test -run '^$' -bench 'BenchmarkRecorderSample' -benchtime 1000x -benchmem ./internal/obs | grep 'BenchmarkRecorderSample' | grep -q ' 0 allocs/op'
go run ./cmd/shrimp-bench -iters 3 -only metrics/recorder -compare BENCH_8.json -tol 0.5 -o /dev/null
# Progress-watchdog smoke under the race detector: a crashed receiver
# with an unbounded retry budget must trip the retry-storm check (plus
# the deadline/FIFO-stall and differential watchdog suites).
go test -race -count 1 -run 'TestWatchdog' ./internal/core
# OpenMetrics determinism: two one-shot shrimp-top runs must compare
# byte-identical.
go run ./cmd/shrimp-top -mesh 2x2 -rounds 2 > /tmp/shrimp-top-a.prom
go run ./cmd/shrimp-top -mesh 2x2 -rounds 2 > /tmp/shrimp-top-b.prom
cmp /tmp/shrimp-top-a.prom /tmp/shrimp-top-b.prom
# Timeline smoke: a 16-node run must export valid Chrome trace JSON,
# with recorder counter tracks riding along.
go run ./cmd/shrimp-trace -rounds 1 -interval 10us -o /dev/null
