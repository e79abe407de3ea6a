#!/usr/bin/env bash
# Builds sdembench from source and runs it with the given arguments. Run
# it from the repository root:
#
#   bash bench/run.sh --workload hot-simulate --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare bench/calibration/A.jsonl bench/calibration/B.jsonl
#
# The build cache, module cache and Go's own config stay in .bench_build/
# at the root, and the go command never reaches for a network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$build/sdembench" ./sdembench)
exec "$build/sdembench" "$@"
