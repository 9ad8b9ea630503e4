#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper_stochastic --seed 1 --seconds 30 --trace 0
#
# The binary and every Go cache stay under .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Stamping the revision needs a usable VCS; a checkout without one
# builds unstamped and its manifest says so.
(cd perfbench && { go build -o "$out/perfbench" . || go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
