#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash benchmark/run.sh --workload solve-fine --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go -C "$root/benchmark" build -o "$out/hilpbench" .

commit=unknown
if [ -d "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export HILPBENCH_COMMIT="$commit"
exec "$out/hilpbench" "$@"
