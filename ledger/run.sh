#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash ledger/run.sh --workload eval-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's own state go to
# .bench_build/ at the repository root, so a run reads and writes only
# inside the checkout. The build fails, and nothing is printed on
# standard output, when the repository's Go module is not beside this
# directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
	export GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/ledger" . >&2
)
cd "$root"
exec "$out/ledger" -repo "$root" "$@"
