#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the tree. Every file the build writes stays under
# .bench_build/ in that tree (Go's build cache included), and the build
# never reaches the network: the module has no dependencies outside the tree.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
