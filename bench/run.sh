#!/usr/bin/env bash
# The benchmark's entry point for BENCHMARK.json's command. It builds the
# benchmark from source inside the checkout and runs it with the arguments
# given. The Go build cache is kept under .bench_build in the checkout too,
# so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw
export GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
