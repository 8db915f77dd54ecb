#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root; every argument passes through (see main.go). A traced
# run (-trace=1 or --trace 1) is built with -tags benchtrace.
#
# Everything the build and the run write stays under .bench_build in the
# working directory: Go's build cache and temporary files included.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

tags=()
prev=""
for arg in "$@"; do
	case "$prev $arg" in
	"-trace 1" | "--trace 1") tags=(-tags benchtrace) ;;
	esac
	case "$arg" in
	-trace=1 | --trace=1) tags=(-tags benchtrace) ;;
	esac
	prev="$arg"
done

go -C "$here" build "${tags[@]}" -o "$build/bin/e2e" .
exec "$build/bin/e2e" -work "$build/e2e" "$@"
