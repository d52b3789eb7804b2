#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of a checkout:
#
#   bash bench/run.sh --workload lib-cold --seed 1 --seconds 12 --trace 0
#
# The build, Go's caches and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
