#!/usr/bin/env bash
# Builds the benchmark and privbayesd from this checkout's sources, then
# runs one workload. Every build output, cache and scratch file stays
# under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload fit-binary --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off

commit=unknown
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/privbayesd" privbayes/cmd/privbayesd >&2
cd "$root"
exec "$out/perfbench" -daemon "$out/privbayesd" -work "$out/work" -commit "$commit" "$@"
