#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds aqlbench from
# source inside the checkout — binary, Go build cache, the go command's
# scratch directory and its telemetry counters all under .bench_build/, so
# nothing is written outside it — then runs it with the driver's
# arguments. The first build compiles the standard library too.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
mkdir -p "$root/.bench_build/tmp"
GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" XDG_CONFIG_HOME="$root/.bench_build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=auto \
	go build -C "$root/benchmark" -o "$root/.bench_build/aqlbench" ./aqlbench
exec "$root/.bench_build/aqlbench" "$@"
