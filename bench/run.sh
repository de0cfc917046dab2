#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it. `go run ./bench` does the same for a person at
# a terminal; this wrapper exists so that a driver's checkout is never
# written outside of (Go's build cache, module path and config directory
# all default to $HOME) and so a checkout without the module fails fast.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/exp ]; then
	echo "bench/run.sh: run from the root of a repro checkout (go.mod and internal/ not found in $PWD)" >&2
	exit 2
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/ddsbench" ./bench
exec "$build/ddsbench" "$@"
