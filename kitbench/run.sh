#!/usr/bin/env bash
# Builds the kit benchmark from source and runs it.  Run from the root
# of a checkout:
#
#   bash kitbench/run.sh --workload stream --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache and trace output go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so the
# run reads and writes nothing outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd kitbench && go build -o "$out/kitbench" .)
exec "$out/kitbench" --out "$out" "$@"
