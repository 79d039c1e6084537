#!/usr/bin/env bash
# Builds the dvperf benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash dvperf/run.sh --workload batch-dv --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary build files, the go command's
# configuration and telemetry directory, the binary, and the benchmark's
# scratch files and reports. The toolchain is never downloaded and no
# module is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOSUMDB=off

(cd "$root/dvperf" && go build -o "$out/dvperf" .)
exec "$out/dvperf" "$@"
