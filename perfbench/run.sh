#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run one workload.
#
#   bash perfbench/run.sh --workload replay|adaptive|fleet --seed N \
#        --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# JSON result line stays the last line of stdout.  Fails (without a
# result line) when the repository's sources are not there to build.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
