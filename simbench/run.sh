#!/usr/bin/env bash
# Builds the simulator benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash simbench/run.sh --workload fabric-drill-rlb --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, the Go build cache
# included, stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" "$@"
