#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the root of a checkout:
#
#   bash e2ebench/run.sh --workload fit-patents --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
