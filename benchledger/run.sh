#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with every argument passed through. Run from the checkout root:
#
#	bash benchledger/run.sh --workload resp-small-d1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/ in
# the checkout (Go build cache, temporary files, the binary, result records,
# span dumps and watchdog goroutine dumps).
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$src" && go build -o "$out/benchledger" .) >&2
exec "$out/benchledger" -out "$out/benchledger-runs" -src "$root" "$@"
