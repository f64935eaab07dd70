#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paperfigs --seed 1 --seconds 45 --trace 0
#
# Every build artefact (binaries, Go caches, temporary files) stays in
# .bench_build inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
