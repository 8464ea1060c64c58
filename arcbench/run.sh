#!/usr/bin/env bash
# Builds the arcsim benchmark driver from the source tree it sits in and
# runs it. Run from the repository root:
#
#   bash arcbench/run.sh --workload sim-core --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the driver binary, profiles,
# spans and the daemon's temporary stores.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

test -f go.mod || { echo "arcbench: run from the arcsim repository root" >&2; exit 2; }
go build -C arcbench -o "$out/arcbench" .
exec "$out/arcbench" "$@"
