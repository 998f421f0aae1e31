#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload: bash cmd/perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build products, the Go build cache, the go command's configuration and
# telemetry directory, and the CPU profiles all stay under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/cmd/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
