#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build artifact, profile and temporary file stays under
# .bench_build/ in the current directory.
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly \
	PPROF_TMPDIR="$build/tmp" PPROF_BINARY_PATH="$build"

go -C bench build -o "$build/shrimp-benchmark" .
exec "$build/shrimp-benchmark" --workdir "$build" "$@"
