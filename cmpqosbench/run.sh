#!/bin/sh
# Builds the benchmark and qosd from the checkout's own sources, then
# runs the benchmark with the given arguments. Run it from the root of
# the checkout:
#
#	sh cmpqosbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries, profiles and daemon state stay under
# .bench_build in the checkout. Build output goes to stderr; the last
# line of stdout is the result JSON.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off
go -C cmpqosbench build -trimpath -o "$out/bin/" . cmpqos/cmd/qosd >&2
exec "$out/bin/cmpqosbench" -root "$root" "$@"
