#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all live
# under .bench_build/ in the current directory, and the toolchain never
# reaches the network. The build fails, and so does this script, outside a
# checkout of the repository (the benchmark module replaces adarnet => ../).
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
