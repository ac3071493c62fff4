#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload ind-if-cold --seed 1 --seconds 50 --trace 0
# Build outputs, the Go build cache and the temporary page files of
# file-backed indexes all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOFLAGS=
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
