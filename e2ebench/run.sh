#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a Viator checkout:
#
#   bash e2ebench/run.sh --workload s2_district --seed 42 --seconds 25 --trace 0
#
# Every build product and cache goes under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; nothing is read from or written to
# the user's Go caches.
set -euo pipefail

root=$(pwd)
if [[ ! -f e2ebench/go.mod || ! -f go.mod ]]; then
	echo "e2ebench: run from the root of a Viator checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build=$root/$build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/mod
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
export GOMAXPROCS=$(nproc)

(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --root "$root" --spans-dir "$build/spans" "$@"
