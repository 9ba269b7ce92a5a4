#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload fetch-hot --seed 1 --seconds 10 --trace 0
# Every build artefact, cache and run record stays under .bench_build in the
# directory it is started from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
