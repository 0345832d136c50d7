#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload estimate-hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, temporary files, the binary, span traces) stays
# under .bench_build/ in the current directory.
#
# The build depends on nothing but the Go toolchain and the checkout:
# no C compiler (CGO_ENABLED=0), no version-control tool (a checkout that
# sits inside someone else's git work tree would otherwise make the build
# stamp, and fail on, that tree's status), no go.work, go env file or
# telemetry directory outside the checkout, and no module download.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
