#!/usr/bin/env bash
# Builds the benchmark harness, kvserver and kvproxy from this checkout's
# source, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload store-churn --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) at the checkout root.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/kvserver ] || [ ! -d internal/kvstore ]; then
	echo "perfbench: $root is not a full checkout of the repo (no go.mod, cmd/kvserver or internal/kvstore)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# stdout carries only the harness report; build chatter goes to stderr.
go -C perfbench build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/" ./cmd/kvserver ./cmd/kvproxy >&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
