#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload vpic-scan --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (the binary, the Go build cache,
# traced runs' span files) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$root/perfbench"
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
		go build -o "$out/perfbench" .
) >&2
cd "$root"
exec "$out/perfbench" "$@"
