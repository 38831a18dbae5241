#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload pipeline-inproc --seed 11 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache included) goes under $CARGO_TARGET_DIR, default
# .bench_build, so nothing is written outside the checkout. Without
# the repository's go.mod next to this directory the build fails and
# the script exits non-zero before printing any result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= BENCH_BUILD_DIR="$out"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$out/soleil-bench" .)
exec "$out/soleil-bench" "$@"
