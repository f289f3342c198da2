#!/usr/bin/env bash
# Builds the benchmark (and with it the spantree packages it drives) from
# the checkout's source, then runs it. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload find-random --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# checkout: the Go build cache, temp files, the binary, and the span dumps.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ]; then
	echo "perfbench: $root holds no spantree module to benchmark" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
