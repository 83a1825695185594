#!/usr/bin/env bash
# Builds fleetbench from the sources of the checkout this script sits in and
# runs it with the given arguments, from the checkout's root. The build
# cache, temporary files and the binary all stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/fleetbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
cd "$root"
exec "$out/fleetbench" "$@"
