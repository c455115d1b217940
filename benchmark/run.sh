#!/usr/bin/env bash
# Builds noc_bench (Release, -O2 + IPO, like the shipped tools) into
# benchmark/out/build, then runs the benchmark:
#
#   benchmark/run.sh [--seed N] [--reps N] [--out FILE]   every workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke                               self-test
#   benchmark/run.sh --check-seeds A-B                     generator check
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
jobs="$(nproc 2>/dev/null || echo 1)"
jobs=$(( jobs < 4 ? jobs : 4 ))

mkdir -p "$build"
generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release > "$here/out/configure.log" 2>&1 ||
    { rm -rf "$build"; cat "$here/out/configure.log" >&2; exit 1; }
fi
cmake --build "$build" --target noc_bench -j "$jobs" > "$here/out/build.log" 2>&1 ||
  { cat "$here/out/build.log" >&2; exit 1; }

if [[ "${1:-}" == "--check-seeds" ]]; then
  exec "$build/noc_bench" "$@"
fi
exec python3 "$here/run.py" "$@"
