#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments:
#
#   bash benchmark/run.sh --workload sweep_grid --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout. Build output goes to stderr, so standard
# output carries only the benchmark's own lines.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/catamount-bench" .) >&2
exec "$out/catamount-bench" "$@"
