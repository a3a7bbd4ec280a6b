#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the working directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

# The go command also keeps per-user state (telemetry counters, the go
# env file) under the user config directory; point that inside too.
XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0 \
	go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
