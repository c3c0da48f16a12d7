#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-sweep --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, results and spans stay under .bench_build
# in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
