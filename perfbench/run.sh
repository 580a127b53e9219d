#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload update-64k --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the traced
# span dumps. A missing or broken source tree fails the build, and the script
# exits non-zero without running anything.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
