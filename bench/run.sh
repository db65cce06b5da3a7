#!/bin/sh
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see README.md for the flags).
#
# Everything the build and the run write stays under .bench_build: the
# binary, the Go build cache, temporary files and the generated inputs.
set -eu
cd "$(dirname "$0")/.."
out=$(pwd)/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$out/pbbench" .)
exec "$out/pbbench" "$@"
