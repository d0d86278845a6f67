#!/usr/bin/env bash
# Entry point named by /BENCHMARK.json; run from the root of a checkout:
#
#   bash benchmark/run.sh --workload serve_miss --seed 1 --seconds 15 --trace 0
#
# It is `go run ./benchmark` with the Go build cache kept under
# .bench_build/, so that building writes nothing outside the checkout,
# and with toolchain downloads off. Outside a checkout of the whole
# repository there is no go.mod and the build fails with a non-zero
# exit.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
exec go run ./benchmark "$@"
