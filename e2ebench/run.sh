#!/usr/bin/env bash
# Builds the e2ebench benchmark from the checkout it is run in and runs
# it. Run from the root of the checkout; arguments pass through:
#
#   bash e2ebench/run.sh --workload api-fresh --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) goes under
# .bench_build/e2ebench in the checkout.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" || ! -d "$root/scenarios" ]]; then
	echo "e2ebench: run from the root of a dvsslack checkout" >&2
	exit 2
fi
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$src" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
