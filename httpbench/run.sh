#!/usr/bin/env bash
# Builds httpbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash httpbench/run.sh -workload drift -seed 1 -seconds 10 -trace 0
#
# The build cache, the binary, the data directories and the span files all
# live under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$root/httpbench" && go build -o "$out/httpbench" .)
exec "$out/httpbench" -workdir "$out" "$@"
