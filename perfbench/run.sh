#!/bin/sh
# Build the benchmark from the checkout's sources, then run it in place
# of this shell.  Arguments go to the benchmark unchanged:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]
# Dune's shared cache is disabled so the build writes only under the
# checkout's _build.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
