#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload er-small --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" ./cmd/perfbench)
exec "$out/perfbench" --spans "$out" "$@"
