#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there with the arguments given: bash benchmark/run.sh
# [flags], see benchmark/README.md. The builder's contract lets a run read and
# write only inside its checkout, and go would put its build cache under $HOME
# and its work directory under /tmp, so both are pointed into .bench_build/;
# that needs absolute paths, which BENCHMARK.json's command cannot hold.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
