#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays in .bench_build/ at the
# repository root: the Go build cache, the binary and the results.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
