#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it once:
#
#   bash perfbench/run.sh --workload <bigrun|figures|faults|control> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build product (the Go build cache
# and the binary) lands in .bench_build/ under that root, and the Go
# toolchain is kept offline and away from user-level configuration.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
