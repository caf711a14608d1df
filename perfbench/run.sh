#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in, then runs
# one workload:
#
#   bash perfbench/run.sh --workload nsfnet-replay --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, temporary files and the go command's
# own config and telemetry directory stay under .bench_build/ in the
# checkout. Without the repository's sources next to perfbench/ the build
# fails and the script exits nonzero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR" "$build/bin"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) 1>&2
exec "$build/bin/perfbench" -workdir "$build" "$@"
