#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): build capbench from this
# checkout and run it with the arguments given.
#
# Everything the Go toolchain writes — build cache, temp files, its own
# config and counters, the binary — goes under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it. The first run
# in a fresh checkout compiles the standard library into that cache (about
# 20 s on 2 cores); later runs only re-link when a source file changed.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local
go build -C "$root/cmd/capbench" -o "$build/capbench" .
cd "$root"
exec "$build/capbench" "$@"
