#!/bin/bash
# The driver's entry point: the benchmark, with everything the go tool writes
# (build cache, temporary files) kept inside the checkout, under .bench_build,
# and dependencies taken from vendor/ so that no network is needed. Run it
# from the repository root; arguments go to the benchmark unchanged.
set -eu
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOFLAGS=-mod=vendor
exec go run ./benchmark "$@"
