#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one benchmark
# run from the root of the checkout:
#   bash perfbench/run.sh --workload point_text --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last stdout line is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/systemr_server.ml ]; then
  echo "perfbench: run from a checkout of the repository (no dune-project or server source here)" >&2
  exit 2
fi
dune build --root . ./bin/systemr_server.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
