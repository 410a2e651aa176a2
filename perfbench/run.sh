#!/usr/bin/env bash
# Builds the benchmark and cmd/tbaad from the checkout in the current
# directory, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build in
# the checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
go -C "$root" build -o "$out/bin/tbaad" ./cmd/tbaad >&2
exec "$out/bin/perfbench" -tbaad "$out/bin/tbaad" -workdir "$out/run" "$@"
