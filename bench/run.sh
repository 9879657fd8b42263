#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload diameter-rr256 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays in bench/.build/. Build output goes to standard error, so the last
# line of standard output is the benchmark's.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
out="$bench/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# Stamp the commit only in a git checkout; elsewhere the build must not
# look for version control above the checkout.
vcs=false
if [ -e "$bench/../.git" ]; then vcs=auto; fi
(cd "$bench" && go build -buildvcs=$vcs -o "$out/bench" .) >&2
exec "$out/bench" "$@"
