#!/usr/bin/env bash
# Builds the SMACS benchmark from the checkout it is run in and runs it.
# Run from the repository root; every argument passes through, e.g.
#
#   bash perfbench/run.sh --workload sale-onetime --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files
# (replica WALs, span dumps) stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root is not a SMACS checkout (run from the repository root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/smacsbench" .
exec "$out/smacsbench" -workdir "$out/work" "$@"
