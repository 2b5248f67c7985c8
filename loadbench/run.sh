#!/usr/bin/env bash
# Build `sosae` and the load benchmark from source, then run the
# benchmark from the repository root:
#   bash loadbench/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep the build's scratch files inside the checkout
export DUNE_CACHE=disabled TMPDIR="$PWD/.loadbench/tmp"
mkdir -p "$TMPDIR"
dune build --root . ./bin/sosae.exe ./loadbench/loadbench.exe 1>&2
exec ./_build/default/loadbench/loadbench.exe "$@"
