#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
# Run from the repository root:
#
#   bash bench/e2e/run.sh --workload W --seed S --seconds T --trace 0|1
#
# The build goes to _build/ with dune's shared cache off, so nothing is
# read or written outside the checkout.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . ./bench/e2e/amcast_bench.exe 1>&2
commit=unknown
if [ -e .git ]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
exec ./_build/default/bench/e2e/amcast_bench.exe --commit "$commit" "$@"
