#!/usr/bin/env bash
# Builds megaserve, megabench and the benchmark harness from the source
# tree this script sits in, then runs the harness with every argument
# passed through. Run it from the repository root:
#
#	bash perfbench/run.sh --workload fresh --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temp
# files, binaries, the durable workload's state directories and the
# span files. The Go toolchain never touches the network (GOPROXY=off);
# the repository has no third-party dependencies.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

# The harness module replaces "mega" with the tree above it; without that
# tree (a directory holding only the benchmark) these builds fail and the
# script exits non-zero before anything is measured.
go build -o "$build/bin/" ./cmd/megaserve ./cmd/megabench >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
