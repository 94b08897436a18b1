#!/usr/bin/env bash
# Builds cfbench from this checkout and runs it; arguments pass through:
#
#   bash internal/benchmark/run.sh --workload hot-zipf --seed 3 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binaries, temporary cfserve
# stores, logs of failed runs) stays under .bench_build at the repo root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$work/cfbench" ./cmd/cfbench
exec "$work/cfbench" -root "$root" -workdir "$work" "$@"
