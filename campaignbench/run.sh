#!/usr/bin/env bash
# Builds the campaign benchmark from the enclosing checkout and runs it.
# Every argument is passed through, e.g.
#
#	bash campaignbench/run.sh --workload e-fork --seed 2017 --seconds 20 --trace 0
#	bash campaignbench/run.sh ledger -seed-base 1
#
# Build cache, temporary files, journals and span dumps all stay under
# .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/campaignbench" .)
export CAMPAIGNBENCH_WORKDIR="$build/work"
exec "$build/campaignbench" "$@"
