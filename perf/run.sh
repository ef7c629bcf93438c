#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it.
# Run from the repository root:
#
#   bash perf/run.sh --workload eager-hot --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the Go tools' configuration and telemetry
# counters, and every scratch file stay under .bench_build/, so a run writes
# nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perf -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/tmp" "$@"
