#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload paper-1x2-full --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the run's scratch data live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing outside the
# checkout is written and no toolchain or module is downloaded.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/perfbench-data" "$@"
