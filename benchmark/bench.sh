#!/bin/bash
# The benchmark's command (see BENCHMARK.json): build the harness from the
# checkout's sources, then run it with the driver's arguments.
#
#   bash benchmark/bench.sh --workload sim-day --seed 1 --seconds 20 --trace 0
#
# The build is incremental and happens before the harness starts its clock,
# so compile time is in no metric. Everything written stays inside the
# checkout: the Go build cache and the binary under .bench_build/, span
# files and scratch traces under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench.sh: no go.mod in $PWD: the program is not here, nothing to measure" >&2
	exit 1
fi
build="$PWD/.bench_build"
# XDG_CONFIG_HOME moves the go command's own counter files in there too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command finds no upload token and
# starts its telemetry sidecar, a detached process that outlives the build.
# The mode file is the only switch for it (GOTELEMETRY cannot be set from
# the environment), so write "off" before go runs for the first time.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
# The compiler's work directory too, which would otherwise go to /tmp.
export GOTMPDIR="$build/tmp"
mkdir -p "$GOTMPDIR"
# No network, whatever the environment says: the module has no dependencies
# and must build with the toolchain that is installed.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./benchmark
exec "$build/bench" -out benchmark/out "$@"
