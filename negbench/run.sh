#!/usr/bin/env bash
# Builds the negmine binaries and the benchmark program from the checkout's
# source, then runs one benchmark invocation. Run from the repository root:
#
#   bash negbench/run.sh --workload mine-tall --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries and run scratch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build the programs under test and negbench; stdout is reserved for
# negbench's report, so build chatter goes to stderr.
(cd "$root/negbench" && go build -o "$out/bin/" \
	negmine/cmd/negmine negmine/cmd/negmined negmine/cmd/negrouter negmine/cmd/datagen \
	negmine/negbench) >&2

exec "$out/bin/negbench" -bin "$out/bin" -work "$out/work" "$@"
