#!/usr/bin/env bash
# Build the end-to-end benchmark from this checkout's sources and run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from anywhere inside a checkout of the repository: the benchmark
# links the library under lib/, so a directory holding only perfbench/
# cannot build it and the script exits non-zero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: lib/ and dune-project not found; run from a checkout of the repository" >&2
  exit 2
fi
# Build output stays inside the checkout (_build/), never in a shared cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
