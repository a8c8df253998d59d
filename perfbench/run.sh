#!/usr/bin/env bash
# Builds perfbench and kvserverd from the checkout in the current directory
# and runs one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload put-uniform --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/kvserverd" ./cmd/kvserverd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -server "$out/kvserverd" "$@"
