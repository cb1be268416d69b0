#!/usr/bin/env bash
# Builds the programs under test and the benchmark from the source tree
# this script sits in, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload sweep-large-n --seed 1 --seconds 25 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
for need in go.mod cmd/topogame cmd/topogamed; do
	if [ ! -e "$need" ]; then
		echo "perfbench: $root holds no $need; nothing to benchmark" >&2
		exit 1
	fi
done
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
# With telemetry on, the go command forks a sidecar process that
# outlives it; turn it off so the build leaves nothing running.
echo off > "$out/config/go/telemetry/mode"
go build -o "$out/bin/" ./cmd/topogame ./cmd/topogamed >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
