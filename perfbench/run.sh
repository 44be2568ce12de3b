#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload apps --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and Chrome traces go to
# $CARGO_TARGET_DIR (default .bench_build), so the run writes only inside
# the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
