#!/usr/bin/env bash
# Builds and runs the blitzd benchmark from the repository root, passing every
# argument through:
#
#   bash benchmark/run.sh --workload opt-hot --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the benchmark binary and blitzd all live under
# .bench_build/ in the checkout, and the module proxy is off, so a run reads
# and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the repository root (no benchmark/go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
go -C "$root/benchmark" build -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
