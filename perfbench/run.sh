#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fpga-inline --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --validate-only
#
# Every build product and scratch file stays under .bench_build/ in the
# current directory; the Go build cache is kept there too.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off
# The stamp asks git for the commit; keep git from searching above the root.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
