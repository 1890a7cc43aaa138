#!/usr/bin/env bash
# Builds the dmx benchmark from the source tree it sits in and runs it.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory (the Go build cache included), so the run touches
# nothing outside the checkout. Without the engine's sources beside
# perfbench/ the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off

# The results name the source they measured: the git commit when there is
# one, otherwise a digest of the Go sources and module files.
if rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	DMX_BENCH_SOURCE="git:$rev"
else
	DMX_BENCH_SOURCE="src-sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
fi
export DMX_BENCH_SOURCE

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
