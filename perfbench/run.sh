#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in, then runs
# it with the given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload uniform-read --seed 1 --seconds 4 --trace 0
#
# Everything the build writes (Go's build cache, temporary files, the
# binary) and a traced run's spans and profile stay under .bench_build/.
# Outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp" "$build/perfbench"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
