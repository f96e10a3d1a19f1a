#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it, e.g.
#
#   bash perfbench/run.sh --workload drive-gc-write --seed 42 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's profiles and span dumps all go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
