#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Everything the build writes (binary, Go build
# cache) goes under .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
