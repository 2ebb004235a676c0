#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the
# arguments given (see README.md):
#   bash e2e_bench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of a full checkout; it exits 2 when the sources it
# builds from are missing.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2e_bench/main.exe >&2
exec ./_build/default/e2e_bench/main.exe "$@"
