#!/usr/bin/env bash
# Builds clarify-bench from source and runs it with the given arguments.
# Run from the repository root: bash cmd/clarify-bench/run.sh -workload all -seed 1
#
# Build outputs (binary, Go build cache, temp files) stay under .bench_build/
# in the current directory; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/cmd/clarify-bench" build -o "$out/clarify-bench" .
exec "$out/clarify-bench" "$@"
