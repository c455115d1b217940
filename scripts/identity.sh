#!/usr/bin/env bash
# Byte-identity check of a change against its parent:
#
#   scripts/identity.sh PARENT_BUILD CHANGE_BUILD
#
# Both arguments are build directories of this repository (Release builds
# of the parent commit and of the change). Each side's own tools run the
# same inputs from this checkout, and the script compares:
#   * the result JSON (-o) of every canonical scenario on the soa and the
#     naive engine, each with and without --verify (noc_sim's stdout is
#     only the summary table);
#   * the result JSON and CSV of every canonical sweep on both engines;
#   * when benchmark/out/specs/ exists (benchmark/run.sh writes it, as does
#     noc_bench --write-specs), the result JSON of every generated
#     benchmark scenario there, and the result JSON and CSV of every
#     generated benchmark sweep there, on both engines;
#   * observed runs: every canonical scenario and every generated
#     benchmark scenario on both engines with the verify monitor and the
#     obs tap armed (--verify --sample-every 64 --trace --stats-csv), which
#     compares the result JSON, the trace and the per-window stats CSV;
#   * noc_verify's randomized runs: `--fuzz 1500 --fault-fuzz 1000` at
#     seeds 2 and 3 (both engines inside each run, about 6 s per run),
#     comparing the result JSON and the per-workload report lines. They
#     reach the monitor's random-conformance, resync and
#     fault-classification paths, which the canonical scenarios barely
#     touch. (Larger batches and other seeds hit known verification
#     failures, and a failing batch writes no JSON.)
#   * the stdout of the paper benches and the examples. bench_stack's
#     google-benchmark rows are host timings and are dropped; bench_speed
#     and bench_sweep print nothing but host timings and are not run.
# Prints one line per difference and exits non-zero if there is any.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent="$(realpath "$1")"
change="$(realpath "$2")"
cd "$(dirname "$0")/.."
repo="$(pwd)"

for build in "$parent" "$change"; do
  for tool in noc_sim noc_sweep noc_verify; do
    if [[ ! -x "$build/$tool" ]]; then
      echo "error: $build/$tool not built" >&2
      exit 2
    fi
  done
done

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change"
jobs="$(nproc 2>/dev/null || echo 1)"
jobs=$(( jobs < 4 ? jobs : 4 ))
differences=0
checked=0

# same FILE_A FILE_B LABEL: counts one comparison, reports a difference.
same() {
  checked=$(( checked + 1 ))
  if ! cmp -s "$1" "$2"; then
    echo "DIFFERS: $3"
    differences=$(( differences + 1 ))
  fi
}

# Scenarios: engine x verify.
for spec in scenarios/*.scn; do
  name="$(basename "$spec" .scn)"
  for engine in soa naive; do
    for verify in "" --verify; do
      tag="${name}_${engine}${verify:+_verify}"
      for side in parent change; do
        build="$parent"
        [[ "$side" == change ]] && build="$change"
        # A failed verification still writes its JSON; the comparison is
        # what counts here.
        "$build/noc_sim" --quiet --engine "$engine" $verify \
          -o "$work/$side/$tag.json" "$spec" > /dev/null 2>&1 || true
      done
      same "$work/parent/$tag.json" "$work/change/$tag.json" "noc_sim $tag"
    done
  done
done

# Sweeps: both engines, JSON and CSV.
for sweep in scenarios/sweeps/*.swp; do
  name="$(basename "$sweep" .swp)"
  for engine in soa naive; do
    tag="sweep_${name}_${engine}"
    for side in parent change; do
      build="$parent"
      [[ "$side" == change ]] && build="$change"
      "$build/noc_sweep" --quiet --engine "$engine" --jobs "$jobs" \
        -o "$work/$side/$tag.json" --csv "$work/$side/$tag.csv" \
        "$sweep" > /dev/null 2>&1 || true
    done
    same "$work/parent/$tag.json" "$work/change/$tag.json" "noc_sweep $tag json"
    same "$work/parent/$tag.csv" "$work/change/$tag.csv" "noc_sweep $tag csv"
  done
done

# Benchmark scenarios: the workloads a perf change is measured on.
bench_specs="benchmark/out/specs"
if [[ -d "$bench_specs" ]]; then
  for spec in "$bench_specs"/*.scn; do
    [[ -e "$spec" ]] || continue
    name="$(basename "$spec" .scn)"
    for engine in soa naive; do
      tag="bench_${name}_${engine}"
      for side in parent change; do
        build="$parent"
        [[ "$side" == change ]] && build="$change"
        "$build/noc_sim" --quiet --engine "$engine" \
          -o "$work/$side/$tag.json" "$spec" > /dev/null 2>&1 || true
      done
      same "$work/parent/$tag.json" "$work/change/$tag.json" "noc_sim $tag"
    done
  done
  for sweep in "$bench_specs"/*.swp; do
    [[ -e "$sweep" ]] || continue
    name="$(basename "$sweep" .swp)"
    for engine in soa naive; do
      tag="bench_sweep_${name}_${engine}"
      for side in parent change; do
        build="$parent"
        [[ "$side" == change ]] && build="$change"
        "$build/noc_sweep" --quiet --engine "$engine" --jobs "$jobs" \
          -o "$work/$side/$tag.json" --csv "$work/$side/$tag.csv" \
          "$sweep" > /dev/null 2>&1 || true
      done
      same "$work/parent/$tag.json" "$work/change/$tag.json" \
        "noc_sweep $tag json"
      same "$work/parent/$tag.csv" "$work/change/$tag.csv" \
        "noc_sweep $tag csv"
    done
  done
else
  echo "skipped: $bench_specs (not generated)"
fi

# Observed runs: the monitor and the obs tap armed together. The trace and
# the stats CSV are outputs of their own, compared with the result JSON.
observed_specs=(scenarios/*.scn)
[[ -d "$bench_specs" ]] && observed_specs+=("$bench_specs"/*.scn)
for spec in "${observed_specs[@]}"; do
  [[ -e "$spec" ]] || continue
  name="$(basename "$spec" .scn)"
  for engine in soa naive; do
    tag="observed_${name}_${engine}"
    for side in parent change; do
      build="$parent"
      [[ "$side" == change ]] && build="$change"
      "$build/noc_sim" --quiet --engine "$engine" --verify --sample-every 64 \
        --trace "$work/$side/$tag.trace.json" \
        --stats-csv "$work/$side/$tag.csv" \
        -o "$work/$side/$tag.json" "$spec" > /dev/null 2>&1 || true
    done
    same "$work/parent/$tag.json" "$work/change/$tag.json" "noc_sim $tag json"
    same "$work/parent/$tag.trace.json" "$work/change/$tag.trace.json" \
      "noc_sim $tag trace"
    same "$work/parent/$tag.csv" "$work/change/$tag.csv" "noc_sim $tag csv"
  done
done

# Randomized verified runs: the result JSON and the report lines.
for seed in 2 3; do
  tag="verify_fuzz_seed${seed}"
  for side in parent change; do
    build="$parent"
    [[ "$side" == change ]] && build="$change"
    # From the side's own directory, so "wrote FILE" reads the same.
    (cd "$work/$side" && "$build/noc_verify" --fuzz 1500 --fault-fuzz 1000 \
      --seed "$seed" -o "$tag.json" > "$tag.out" 2>&1) || true
  done
  same "$work/parent/$tag.json" "$work/change/$tag.json" "noc_verify $tag json"
  same "$work/parent/$tag.out" "$work/change/$tag.out" "noc_verify $tag report"
done

# Paper benches and examples: stdout, run from a scratch directory so no
# program writes into the checkout.
programs=(bench_ablation bench_area bench_config bench_gt_be bench_guarantees
          bench_latency bench_threshold bench_throughput bench_stack
          configure_noc multi_memory quickstart video_pipeline)
for program in "${programs[@]}"; do
  if [[ ! -x "$parent/$program" || ! -x "$change/$program" ]]; then
    echo "skipped: $program (not built on both sides)"
    continue
  fi
  for side in parent change; do
    build="$parent"
    [[ "$side" == change ]] && build="$change"
    mkdir -p "$work/$side/run"
    (cd "$work/$side/run" && "$build/$program" 2> /dev/null) |
      if [[ "$program" == bench_stack ]]; then
        # google-benchmark rows: "BM_name  <time> ns  <cpu> ns  <iters>".
        grep -Ev '^BM_' || true
      else
        cat
      fi > "$work/$side/$program.out" || true
  done
  same "$work/parent/$program.out" "$work/change/$program.out" "$program stdout"
done

echo "identity: $checked comparisons, $differences differing (repo $repo)"
[[ "$differences" -eq 0 ]]
