#!/usr/bin/env bash
# Builds and runs the benchmark harness from the repository root:
#
#   bash timelybench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Every build output, Go cache and log stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout, and the
# Go toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off XDG_CONFIG_HOME=$out/config
(cd "$root/timelybench" && go build -o "$out/bin/timelybench" .)
exec "$out/bin/timelybench" "$@"
