#!/usr/bin/env bash
# Scaling bench lane: measure the parallel engine's cycle throughput at
# workers 1/2/4/8, the phase-barrier microbenchmark, and the serial
# reference, then summarise the workers=2-vs-1 overhead from per-count
# minima (the noise-robust statistic on shared hosts — interference only
# ever adds time).
#
# Usage: scripts/bench_scaling.sh [out-dir] [count] [benchtime]
#
# Raw `go test -bench` output lands in <out-dir>/scaling-raw.txt, the
# summary on stdout. The end-to-end ledger is `bash bench/run.sh` (its
# knee-serial and knee-workers2 workloads are this operating point); this
# script adds the worker-count curve and the barrier microbenchmark.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-$(mktemp -d)}"
count="${2:-5}"
benchtime="${3:-1s}"
mkdir -p "$out"
raw="$out/scaling-raw.txt"
: > "$raw"

echo "bench-scaling: GOMAXPROCS=$(go run ./scripts/benchsummary -procs), count=$count, benchtime=$benchtime" >&2

# Engine curves: serial reference plus the sharded engine at every worker
# count. One invocation keeps the comparison inside a single process so
# host drift hits all rows alike.
go test -run 'XXX' -bench 'BenchmarkEngineCycles$|BenchmarkEngineCyclesParallel' \
  -benchmem -benchtime "$benchtime" -count "$count" . | tee -a "$raw"

# Barrier microbenchmark: pure synchronisation cost per barrier round at
# the shard counts the engine uses (4 barriers per steady-state cycle).
go test -run 'XXX' -bench 'BenchmarkPhaseBarrier' \
  -benchmem -benchtime "$benchtime" ./internal/sim/ | tee -a "$raw"

go run ./scripts/benchsummary "$raw"
