#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it
# with the arguments given. Run it from the repository root:
#
#   bash perfbench/run.sh --workload detect-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the stores a run opens and the traces it
# writes all stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/store || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a repository checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
