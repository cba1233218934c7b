#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source in this checkout and
# runs it; arguments pass through (see main.go). Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload des-mnist --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the build cache, GOPATH, temporary files of the compiler and linker, and
# the go command's configuration and telemetry (which live under
# XDG_CONFIG_HOME).
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/e2ebench" build -o "$build/e2ebench" . >&2
exec "$build/e2ebench" "$@"
