#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload engine-cached --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the compiler's temporary files, the binary and the
# run records all stay under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
