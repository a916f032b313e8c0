#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the toolchain's config and telemetry, the binary and
# every scratch file stay under .bench_build/ in the checkout. Outside a
# full checkout (the parent module is missing) the build fails and the
# script exits non-zero.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
