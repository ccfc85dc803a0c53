#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload push-scan --seed 1 --seconds 20 --trace 0
#
# Build cache, binary and run scratch all live under .bench_build in the
# working directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
