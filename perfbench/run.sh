#!/usr/bin/env bash
# Builds perfbench from source and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload kernels|replay|service --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write
# stays under $CARGO_TARGET_DIR (default .bench_build) in that directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/traces" "$@"
