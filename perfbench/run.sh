#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the checkout root
# and runs it with the given arguments. Run from the checkout root:
#   bash perfbench/run.sh --workload tournament --seed 1 --seconds 30 --trace 0
# The Go build cache, temporary files, module path and Go's own config
# and telemetry directories all live under .bench_build, so building
# writes nothing outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config" "$build/spans"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --spans "$build/spans" "$@"
