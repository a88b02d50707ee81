#!/usr/bin/env bash
# Builds the serving benchmark from source into .bench_build/ at the
# repository root and runs it there with the given arguments, e.g.
#
#   bash servebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
#
# Go's build cache, temporary files and config live under .bench_build/
# too, so the benchmark writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
SERVEBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export SERVEBENCH_COMMIT
(cd "$here" && go build -buildvcs=false -o "$build/servebench" .)
# Flush what the build wrote now: left to writeback, ~100 MB of build cache
# would land during the first run and stall the journal's fsyncs.
sync -f "$build"
exec "$build/servebench" "$@"
