#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there with the arguments given. Everything the build
# writes (the binary, go's build cache) stays inside the checkout. The build
# is incremental: after the first run it takes a fraction of a second.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/armada-bench" .
cd "$root"
exec "$build/armada-bench" "$@"
