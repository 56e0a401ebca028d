#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see main.go). Run it from anywhere inside a checkout:
#
#   bash perfbench/run.sh --workload d26_synth --seed 7 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod" \
	GOPATH="$out/go-path" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
