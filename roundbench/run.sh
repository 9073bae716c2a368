#!/usr/bin/env bash
# run.sh builds the round benchmark from the checkout it sits in and runs
# it with the caller's arguments, e.g.
#
#   bash roundbench/run.sh --workload sim-cnn --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ at the checkout root, so the benchmark reads and writes
# nothing outside the checkout. A checkout without the program's sources
# fails the build, and the script exits non-zero without a result line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
(cd "$root/roundbench" && go build -o "$out/roundbench" .) >&2
cd "$root"
exec "$out/roundbench" "$@"
