#!/usr/bin/env bash
# Build the end-to-end benchmark (incrementally) and run it.
#
#   bash bench/e2e/run.sh [--workload W] [--seed N] [--seconds 20]
#                         [--trace 0|1] [--smoke]
#
# Without --workload every workload runs, each in its own process.
# Build and results live under .bench_build/e2e/ at the repository root;
# build output goes to stderr so the last stdout line of a single-
# workload run is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
work="${root}/.bench_build/e2e"
build="${work}/build"

cmake -S "${root}/bench/e2e" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" --target autofl_e2e -j "$(nproc)" >&2

sha="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
bin=("${build}/autofl_e2e" --work-dir "${work}" --git-sha "${sha}")

for arg in "$@"; do
  if [[ "${arg}" == "--workload" || "${arg}" == "--smoke" ]]; then
    exec "${bin[@]}" "$@"
  fi
done
status=0
for w in train-cnn-sync train-lstm-loopback serve-lstm \
         train-serve-mobilenet; do
  "${bin[@]}" --workload "${w}" "$@" || status=1
done
exit "${status}"
