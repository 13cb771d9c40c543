#!/usr/bin/env bash
# Builds the benchmark and the dpplaced daemon from this checkout's source,
# then runs the benchmark with the given flags. Run it from the repository
# root:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the root:
# the Go build cache, the binaries, scratch designs and traces. The build
# reads no network and no settings outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bench" .
go build -o "$out/dpplaced" ./cmd/dpplaced
exec "$out/bench" -out "$out" -dpplaced "$out/dpplaced" "$@"
