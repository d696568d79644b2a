#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it builds or writes stays under .bench_build/ in the
# checkout root (the Go build cache included).
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
