#!/usr/bin/env bash
# Builds the siphoc benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash siphocbench/run.sh --workload manet-calls --seed 1 --seconds 40 --trace 0
#   bash siphocbench/run.sh steady --workload federation-calls --runs 10 --seconds 40
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, its own settings, the binary) and the traced run's spans stay under
# .bench_build/ in the checkout. The build works offline: the benchmark
# imports only the standard library and the siphoc module next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

(
	cd "$root/siphocbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
		go build -o "$out/siphocbench" .
)
exec "$out/siphocbench" "$@"
