#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Works from any directory inside a full checkout; build output goes to the
# checkout's _build/. The last line of standard output is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
# no shared build cache: the benchmark reads and writes only its checkout
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/main.exe ./bin/cmd_serve.exe ./bin/scenario_gen.exe >&2; then
  echo "run.sh: build failed" >&2
  exit 3
fi
exec ./_build/default/perfbench/main.exe --daemon ./_build/default/bin/cmd_serve.exe \
  --scenario-gen ./_build/default/bin/scenario_gen.exe "$@"
