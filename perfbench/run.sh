#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload fig5-matrix --seed 1 --seconds 36 --trace 0
# Every build product lands in .bench_build/ under the current
# directory; nothing is fetched (the module needs only the standard
# library and the repository itself).
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# XDG_* keeps the go command's config and telemetry files in there too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
