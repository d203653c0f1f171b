#!/usr/bin/env bash
# Builds `resilience` and the benchmark harness from the tree under test
# into .bench_build/perfbench, then runs the harness. Run it from the
# repository root; arguments pass through to the harness:
#
#   bash perfbench/run.sh --workload warm-serve --seed 1 --seconds 35 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/resilience" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod, cmd/resilience or perfbench/go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/resilience" ./cmd/resilience
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out/resilience" -out "$out" "$@"
