#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload fleet-match-any --seed 1 --seconds 20 --trace 0
# from the repository root. Build outputs and the Go build cache stay in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build/gocache" "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
