#!/usr/bin/env bash
# Build the advice_store server and the benchmark from source, then run
# one benchmark measurement from the root of the checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The last line of standard output is the result object; build output
# and progress go to standard error.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/advice_store.ml ]; then
  echo "perfbench: not the root of a full checkout (no dune-project or bin/advice_store.ml)" >&2
  exit 2
fi
dune build --root . ./bin/advice_store.exe ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe \
  --server ./_build/default/bin/advice_store.exe "$@"
