#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload sim-s2 --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary all live under .bench_build/ so nothing is written outside
# the checkout. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

commit=unknown
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD)
fi

env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local \
	go -C perfbench build -buildvcs=false -o "$out/perfbench" . >&2

exec "$out/perfbench" -commit "$commit" "$@"
