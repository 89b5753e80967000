#!/usr/bin/env bash
# Builds the two binaries under test and the benchmark from source,
# then runs the benchmark with the given arguments, e.g.
#   bash bench/e2e/run.sh --workload daemon --seed 3 --seconds 20 --trace 0
# Run it from the root of the repository. Build output goes to stderr,
# so the benchmark's result stays the last line of stdout.
set -euo pipefail

# Keep every build artifact inside the checkout (_build/), none in the
# shared dune cache under $HOME.
export DUNE_CACHE=disabled

dune build --root . --display quiet \
  ./bin/logitdyn.exe ./bin/logitdynd.exe ./bench/e2e/e2e.exe 1>&2

exec ./_build/default/bench/e2e/e2e.exe "$@"
