#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache and trace stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
