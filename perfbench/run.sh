#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and output
# stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build) so the benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export PPROF_TMPDIR="$out/pprof"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -out "$out/perfbench-out" "$@"
