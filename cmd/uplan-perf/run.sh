#!/usr/bin/env bash
# Builds the uplan-perf harness and runs it with the given arguments, e.g.
#
#   bash cmd/uplan-perf/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The harness builds cmd/uplan-serve from the same tree. Everything built
# or written (binaries, the Go build cache, scratch stores) stays under
# .bench_build/ at the repository root, and the build never touches the
# network.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/uplan-perf" && go build -o "$out/uplan-perf" .)
cd "$root"
exec "$out/uplan-perf" "$@"
