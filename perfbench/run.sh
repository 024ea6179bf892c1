#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-distinct --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# in the current directory (binary, Go build cache, result and span files).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the Go toolchain's caches, temporary files and config (telemetry
# included) inside the checkout; the build needs no network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go build -C "$root/perfbench" -o "$out/aimq-perfbench" .

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/aimq-perfbench" --commit "$commit" "$@"
