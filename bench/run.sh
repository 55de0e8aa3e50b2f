#!/usr/bin/env bash
# Entry point the benchmark driver calls from the root of a checkout:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# It builds the harness from source into the ignored .bench_build/ and runs
# it; the harness builds counterd the same way. Go's build cache and temporary
# files are kept inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR" .bench_build/bin
go build -C bench -o ../.bench_build/bin/bench .
exec .bench_build/bin/bench "$@"
