#!/usr/bin/env bash
# Builds the vdcperf benchmark from source and runs one workload. Run it
# from anywhere; it works on the checkout that holds this script:
#
#   bash vdcperf/run.sh --workload testbed-steady --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the traced run's files all go under
# .bench_build/ at the checkout root, so nothing is written elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/vdcperf" && go build -o "$build/vdcperf" .) >&2
cd "$root"
exec "$build/vdcperf" -out "$build/trace" "$@"
