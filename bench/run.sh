#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness and the program
# under test from the checkout it is started in, then runs one workload.
# Every build output, Go cache and store directory stays under
# .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="${out}/config"

go build -C "${root}/bench" -o "${out}/mistique-perf" .
exec "${out}/mistique-perf" -root "${root}" "$@"
