#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the
# repository root; every argument is passed to the harness:
#
#   bash bench/run.sh --workload browse --seed 3 --seconds 20 --trace 0
#
# The build cache and the binary live in .bench_build/ at the root, so
# a run reads and writes nothing outside the checkout, and the build
# never reaches the network. Outside a full checkout (no go.mod at the
# root for bench/go.mod to replace) the build fails and the script exits
# non-zero before the harness prints anything.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C bench -o "$build/rcpt-benchmark" .
exec "$build/rcpt-benchmark" "$@"
