#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from the checkout root with the caller's arguments. Everything the
# build writes (binary and Go build cache) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
# Stamp the commit when the checkout is a usable git repository; build
# without it otherwise.
go build -C "$here" -o "$build/bvcbenchmark" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$build/bvcbenchmark" .
cd "$root"
exec "$build/bvcbenchmark" "$@"
