#!/usr/bin/env bash
# Builds the mvperf benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#	bash mvperf/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, binary, span files) stays under
# .bench_build/ in the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/mvperf" .)
cd "$root"
exec "$out/mvperf" "$@"
