#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload oncall --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artefact (Go build
# cache, binary, WAL directories, span dumps) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp" "${out}/config"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" XDG_CONFIG_HOME="${out}/config"
export GOPATH="${out}/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
