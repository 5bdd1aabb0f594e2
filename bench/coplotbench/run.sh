#!/usr/bin/env bash
# Builds coplotbench and runs it against the repository in the current
# directory. Run from the repository root:
#
#   bash bench/coplotbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build in the current directory; nothing is downloaded.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench/coplotbench -o "$build/bin/coplotbench" .
exec "$build/bin/coplotbench" "$@"
