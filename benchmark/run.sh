#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash benchmark/run.sh --workload fig8-cnn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache,
# per-run scratch directories and results files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The last
# line of standard output is the JSON result; everything else goes to
# standard error.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -o "$out/hsas-bench" .) >&2
exec "$out/hsas-bench" --out "$out" "$@"
