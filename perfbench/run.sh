#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given flags (see perfbench/README.md). Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout:
# the Go build cache, the binary and the traced runs' span files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -spans-dir "$out" "$@"
