#!/usr/bin/env bash
# Runs the tier-1 scheduler benchmarks and records them as JSON.
#
#   scripts/bench.sh                 # full run: -benchtime 3x -count 3 -> BENCH_sched.json
#   BENCHTIME=1x COUNT=1 scripts/bench.sh   # CI smoke
#
# The sched microbenchmarks cover all three policies on the campus trace
# plus a 10x synthetic trace, and the *Naive variants run the reference
# oracle so the optimized-vs-naive speedup is recorded in the same file.
# -benchmem is always on: bytes_per_op/allocs_per_op in the JSON carry
# the slice-vs-columnar memory comparison (BenchmarkSimulateFeed10x).
#
# A second file, BENCH_incr.json, records the Merkle stage cache:
# cold (fill) vs warm (restore every stage) vs policy-change (one
# late-DAG parameter changed, only sim-policy recomputes) on the
# BenchmarkFullPipeline study. The warm/cold ns_per_op ratio is the
# incremental-recomputation speedup. A warm run holds its trace and
# telemetry tables, sims and panel as payloads until a reader decodes
# them, so the warm row times the hold, not a full decode.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_sched.json}"
OUT_INCR="${OUT_INCR:-BENCH_incr.json}"

go build -o /tmp/rcpt-bench ./cmd/rcpt-bench
{
  go test -run '^$' -bench 'BenchmarkSimulate' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/sched/
  go test -run '^$' -bench 'BenchmarkFullPipeline$' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
} | tee /dev/stderr | /tmp/rcpt-bench -benchtime "$BENCHTIME" -count "$COUNT" -out "$OUT"
echo "wrote $OUT" >&2

go test -run '^$' -bench 'BenchmarkRunColdVsWarmStageCache' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . |
  tee /dev/stderr | /tmp/rcpt-bench -benchtime "$BENCHTIME" -count "$COUNT" -out "$OUT_INCR"
echo "wrote $OUT_INCR" >&2
