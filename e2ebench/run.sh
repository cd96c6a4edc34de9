#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash e2ebench/run.sh --workload embed-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build: the Go
# build cache, the binary, and the WAL data the served workload removes
# again. The toolchain is the installed one; nothing is downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
