#!/bin/sh
# Builds the benchmark harness and the experiments binary from source in
# this checkout, then runs the harness with the given arguments:
#   sh perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
# (see perfbench/README.md). A failed build exits non-zero and prints
# nothing on stdout.
#
# The harness, and with it every process it starts, is pinned to CPU 1
# where taskset and that CPU exist, so the probes it runs while a child
# works time the core the child runs on (README.md, "The timing rule").
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display quiet \
  ./perfbench/main.exe ./bin/ifp_experiments.exe 1>&2
pin=
if taskset -c 1 true 2>/dev/null; then pin="taskset -c 1"; fi
exec $pin ./_build/default/perfbench/main.exe "$@"
