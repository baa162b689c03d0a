#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload cold-start --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and a traced run's spans all stay under
# .bench_build/ at the repository root; the toolchain is the local one.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" --spans "$out" "$@"
