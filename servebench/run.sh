#!/usr/bin/env bash
# Builds rulekit and the serving benchmark from this checkout, then runs
# one benchmark run. Run it from the repository root:
#
#   bash servebench/run.sh --workload read_mix --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd servebench
go build -o "$out/bin/rulekit" guardedrules/cmd/rulekit
go build -o "$out/bin/servebench" .
cd ..
exec "$out/bin/servebench" -server "$out/bin/rulekit" -workdir "$out" "$@"
