#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from this checkout's
# sources, then run it with the arguments given. Everything it writes (Go's
# build cache, the binary, the clusters' data directories) stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/c3-benchmark ./benchmark
exec .bench_build/c3-benchmark "$@"
