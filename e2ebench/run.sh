#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root, e.g.
#
#   bash e2ebench/run.sh --workload edge-fanout --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, result files, traces
# and the controller's scratch state.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath" "$build/e2ebench"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false"
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench/e2ebench" .)
exec "$build/e2ebench/e2ebench" "$@"
