#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout, it builds
# the benchmark from source into .bench_build/ (a no-op once built) and runs
# it with the arguments given:
#
#   bash bench/run.sh --workload sim-wide --seed 1 --seconds 25 --trace 0
#
# It is `go run ./bench` with two differences: the binary stays in the
# checkout, and so does the toolchain's cache when its usual place cannot be
# written.
set -euo pipefail

build=.bench_build
mkdir -p "$build"
cache=$(go env GOCACHE 2>/dev/null || true)
if [ -z "$cache" ] || ! mkdir -p "$cache" 2>/dev/null || [ ! -w "$cache" ]; then
	export GOCACHE="$PWD/$build/go-cache"
fi
go build -o "$build/hiway-bench" ./bench
exec "$build/hiway-bench" "$@"
