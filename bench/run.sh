#!/bin/bash
# Builds the service (cmd/serve) and the benchmark from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload warm-hits --seed 1 --seconds 8 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build in the
# working directory (or under CARGO_TARGET_DIR when that is set), the Go
# build cache included, so a fresh checkout builds once and later runs
# reuse the cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/serve ] || [ ! -f bench/go.mod ]; then
	echo "bench: run from the repository root (go.mod, cmd/serve and bench/ must be present)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep the toolchain's caches, temp files and settings inside the working
# directory, and never let it reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/serve" ./cmd/serve
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -serve "$out/serve" -work "$out" "$@"
