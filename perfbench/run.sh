#!/usr/bin/env bash
# Builds the store benchmark from this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 15 --trace 0
#
# Build caches, the binary and the benchmark's stores all live under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
# Keep the go command's cache, module path and config (telemetry
# included) inside the checkout, and off the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" "$@"
