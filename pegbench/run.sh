#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash pegbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build cache, temporary files, the go command's own config and
# telemetry, and the binary all live in .bench_build/ under the current
# directory; nothing is fetched.
set -euo pipefail
root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C "$bench_dir" build -o "$out/pegbench" .
exec "$out/pegbench" "$@"
