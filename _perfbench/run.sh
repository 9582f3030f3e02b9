#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Arguments pass through, e.g.
#   bash _perfbench/run.sh --workload replicated-train --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache, temporary files,
# toolchain state) stays under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
