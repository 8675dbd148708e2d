#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from this checkout's sources
# and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build/
# so a run reads and writes nothing outside the checkout. Outside a full
# checkout (no ../go.mod next to this directory) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build"
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
