#!/bin/sh
# Build kpt and the benchmark program from this checkout, then run it
# with the given arguments:
#
#   sh kbench/run.sh --workload corpus-batch --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a kpt checkout; everything it writes stays
# under _build/ and .kbench/ there.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "kbench: run from the root of a kpt checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then
  DUNE=dune
else
  DUNE="opam exec -- dune"
fi
DUNE_CACHE=disabled $DUNE build --root . ./bin/kpt.exe ./kbench/main.exe >&2
exec ./_build/default/kbench/main.exe "$@"
