#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the given
# arguments. Run from the repository root:
#   bash bench/e2e/run.sh --workload tables --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/e2e/e2e.ml ]; then
  echo "run.sh: run from the root of a full checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
