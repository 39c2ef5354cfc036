#!/usr/bin/env bash
# Build the benchmark from source and run one workload. Run from the
# repository root:
#   bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 25 --trace 0
set -euo pipefail
if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
# no shared build cache: the build reads and writes only this checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
