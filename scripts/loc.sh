#!/usr/bin/env bash
# Prints the size count ROADMAP.md tracks beside the benchmarks: lines
# of non-test Go outside bench/ and testdata, over the files git tracks.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -- '*.go' ':!:*_test.go' ':!:bench/**' ':!:**/testdata/**' | xargs cat | wc -l
