#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source into
# .bench_build/ and run it with the arguments given, from the repository
# root. Everything the Go toolchain writes (build and module caches, its
# temporary directory, its telemetry counters under the user config
# directory) is pointed into .bench_build/ too, so nothing outside the
# checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local \
  go build -C bench -o "$build/dcobench" .
exec "$build/dcobench" "$@"
