#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload svc-hot --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/service || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-mod=readonly -buildvcs=false"
export PERFBENCH_OUT="$out"

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
