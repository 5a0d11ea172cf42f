#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload lib-write --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, module cache, temp files, telemetry) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod must exist)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOPROXY=off \
	GOFLAGS=-mod=readonly GOTOOLCHAIN=local
# The toolchain's default install location, for shells whose PATH lacks it.
export PATH=$PATH:/usr/local/go/bin

(cd "$root/bench" && go build -o "$out/ibrbench-e2e" .)
exec "$out/ibrbench-e2e" "$@"
