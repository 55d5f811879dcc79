#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash _crowdbench/run.sh --workload crowd-cycle --seed 1 --seconds 36 --trace 0
#
# The Go build cache, temporary build files and the binary all live in
# .bench_build/ under the current directory, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C _crowdbench -o "$build/crowdbench" .
exec "$build/crowdbench" "$@"
