#!/usr/bin/env bash
# CI entry point for one matrix configuration. Parameterized by env:
#   CI_COMPILER    gcc | clang               (default gcc)
#   CI_BUILD_TYPE  Debug | Release           (default Debug)
#   CI_SANITIZE    ON | OFF  (ASan + UBSan)  (default OFF)
#   CI_OUTPUT_DIR  artifact directory        (default ci-artifacts)
#   CI_FUZZ_N      conformance-fuzz configs  (default 50)
#   CI_VERIFY_ONLY 1 = build + verification sections only (the dedicated
#                  verify workflow job runs a large fuzz batch without
#                  repeating ctest / smokes / benches)
#   CI_COVERAGE    1 = gcc --coverage build: ctest, then the line-coverage
#                  gate (scripts/coverage_gate.py) against the baseline in
#                  scripts/coverage_baseline.txt, plus gcovr HTML/XML
#                  artifacts when gcovr is installed. Implies gcc.
#   CI_BENCH_FULL  1 = bench_speed runs its --full tier set (adds the
#                  32x32 mesh; the nightly bench job sets this — too slow
#                  for the per-PR matrix)
#   CI_NIGHTLY     1 = deep-soak extras after the verify section: the full
#                  sweep curve set (every sweep x every axis), a
#                  phased-scenario seed soak (fresh seeds, verified,
#                  cross-engine byte-compare), and a 200-config seeded
#                  fault-fuzz soak (noc_verify --fault-fuzz). The nightly
#                  workflow runs this under ASan/UBSan with CI_FUZZ_N=1000.
#
# Steps: configure (warnings-as-errors, ccache when present), build, ctest
# with JUnit output, run noc_sim over every canonical scenario spec, check
# the committed goldens are regen-clean, run the guarantee-verification
# layer (noc_verify over every canonical scenario and sweep on both
# engines, plus a fixed-seed conformance-fuzz batch — under ASan in the
# sanitize configuration), and — on plain Release — a bench_speed smoke so
# perf regressions surface, plus the repository benchmark's self-test
# (benchmark/run.sh --smoke).
#
# Coverage baseline-bump procedure: scripts/coverage_baseline.txt records
# the minimum acceptable src/ line coverage (whole percents). When a PR
# adds meaningful tests, raise it to lock the gain:
#   CI_COVERAGE=1 ./scripts/ci.sh      # prints the measured percentage
#   echo NN > scripts/coverage_baseline.txt
# When a PR legitimately lowers coverage (e.g. defensive paths only a
# fuzzer reaches), lower the number in the SAME PR and justify the drop in
# its description — the gate exists to make that an explicit decision, not
# to forbid it.
set -euo pipefail

cd "$(dirname "$0")/.."

compiler="${CI_COMPILER:-gcc}"
build_type="${CI_BUILD_TYPE:-Debug}"
sanitize="${CI_SANITIZE:-OFF}"
out_dir="${CI_OUTPUT_DIR:-ci-artifacts}"
fuzz_n="${CI_FUZZ_N:-50}"
verify_only="${CI_VERIFY_ONLY:-0}"
coverage="${CI_COVERAGE:-0}"
nightly="${CI_NIGHTLY:-0}"
bench_full="${CI_BENCH_FULL:-0}"
build_dir="build-ci"
if [[ "$coverage" == "1" ]]; then
  compiler=gcc  # gcov data needs the gcc toolchain
  build_dir="build-cov"
fi

case "$compiler" in
  gcc)   export CC=gcc CXX=g++ ;;
  clang) export CC=clang CXX=clang++ ;;
  *) echo "unknown CI_COMPILER '$compiler'" >&2; exit 1 ;;
esac

launcher_args=()
if command -v ccache >/dev/null 2>&1; then
  launcher_args+=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                  -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

mkdir -p "$out_dir"
out_abs="$(realpath "$out_dir")"

coverage_args=()
if [[ "$coverage" == "1" ]]; then
  coverage_args+=(-DCMAKE_CXX_FLAGS=--coverage)
fi

echo "=== configure + build ($compiler, $build_type, sanitize=$sanitize, coverage=$coverage) ==="
cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE="$build_type" \
  -DNOC_WERROR=ON \
  -DSANITIZE="$sanitize" \
  "${coverage_args[@]}" \
  "${launcher_args[@]}"
if [[ "$verify_only" == "1" ]]; then
  # The verification sections only need the two tools; skip the ~25 test
  # binaries, benches and examples the matrix jobs build and run anyway.
  cmake --build "$build_dir" -j"$(nproc)" --target noc_verify noc_sweep
else
  cmake --build "$build_dir" -j"$(nproc)"
fi

if [[ "$verify_only" != "1" ]]; then

echo "=== ctest ==="
ctest --test-dir "$build_dir" --output-on-failure -j"$(nproc)" \
  --output-junit "$out_abs/ctest-junit.xml"

echo "=== noc_sim scenario smoke ==="
./"$build_dir"/noc_sim --quiet -o "$out_dir/scenarios.json" scenarios/*.scn
python3 - "$out_dir/scenarios.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    results = json.load(f)
if isinstance(results, dict):  # noc_sim emits a bare object for one spec
    results = [results]
assert len(results) >= 8, f"expected >= 8 canonical scenarios, got {len(results)}"
for r in results:
    agg = r["aggregate"]
    assert agg["words_in_window"] > 0, f"{r['scenario']}: no traffic delivered"
    print(f"  {r['scenario']}: {agg['words_in_window']} words, "
          f"slot util {100 * agg['slot_utilization']:.1f}%")
EOF

echo "=== goldens-clean: committed goldens match a fresh regeneration ==="
# A builder who changes simulation behaviour but forgets to regenerate the
# goldens gets this targeted message instead of a raw byte-compare failure
# deep inside ctest.
goldens_tmp="$(mktemp -d)"
trap 'rm -rf "$goldens_tmp"' EXIT
./scripts/regen_goldens.sh "$build_dir" "$goldens_tmp" >/dev/null
if ! diff -r "$goldens_tmp" tests/golden >/dev/null 2>&1; then
  echo "--- drift (regenerated vs committed) ---"
  diff -r "$goldens_tmp" tests/golden | head -40 || true
  echo ""
  echo "error: tests/golden/ drifts from what this build regenerates."
  echo "If the simulation change is intentional, run:"
  echo "    ./scripts/regen_goldens.sh $build_dir"
  echo "and commit the golden diff (review it like any other code change)."
  exit 1
fi
echo "goldens are regen-clean"

echo "=== fault resilience: canonical fault goldens + kill switch ==="
# The two canonical fault scenarios (network faults; config faults +
# retry) must reproduce their committed goldens byte-for-byte on BOTH
# engines — seeded fault injection is part of the determinism contract.
for name in fault_stream_star fault_retry_churn; do
  ./"$build_dir"/noc_sim --quiet -o "$out_dir/${name}_soa.json" \
    "scenarios/${name}.scn"
  ./"$build_dir"/noc_sim --quiet --engine naive \
    -o "$out_dir/${name}_naive.json" "scenarios/${name}.scn"
  cmp "$out_dir/${name}_soa.json" "tests/golden/${name}.json"
  cmp "$out_dir/${name}_naive.json" "tests/golden/${name}.json"
  echo "  ${name}: both engines match the golden"
done
# Kill switch: a zero-rate fault file installs every tap but must not
# perturb one bit of a fault-free run.
./"$build_dir"/noc_sim --quiet -o "$out_dir/killswitch_plain.json" \
  scenarios/uniform_star.scn
./"$build_dir"/noc_sim --quiet --fault scenarios/faults/zero.flt \
  -o "$out_dir/killswitch_zero.json" scenarios/uniform_star.scn
cmp "$out_dir/killswitch_plain.json" "$out_dir/killswitch_zero.json"
echo "  zero-rate fault file is byte-inert"

echo "=== observability smoke: counters + trace + noc_trace ==="
# A canonical scenario with sampling and tracing armed: the stats section
# and histograms must be present and sane, and the trace must hold every
# recorded event at the default cap (noc_trace proves it from the trace's
# own drop accounting).
./"$build_dir"/noc_sim --quiet --sample-every 300 \
  --trace "$out_dir/obs_trace.json" --stats-csv "$out_dir/obs_series.csv" \
  -o "$out_dir/obs_mixed_star.json" scenarios/mixed_star.scn
./"$build_dir"/noc_trace --assert-no-drops "$out_dir/obs_trace.json"
python3 - "$out_dir/obs_mixed_star.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema_version"] == 2, f"schema_version {r.get('schema_version')}"
stats = r["stats"]
assert stats["windows"], "no sample windows"
assert any(l["gt_flits"] + l["be_flits"] > 0 for l in stats["links"]), \
    "no link saw traffic"
hist = r["histograms"]["flit_latency"]["all"]
assert hist["count"] > 0, "empty flit-latency histogram"
assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]
print(f"  obs smoke: {len(stats['windows'])} windows, flit latency "
      f"p50/p95/p99 = {hist['p50']}/{hist['p95']}/{hist['p99']}")
EOF

echo "=== convergence smoke: stop-on-convergence mode (DESIGN.md §14) ==="
# A canonical scenario in --converge mode must actually converge, report a
# CI consistent with its own mean, and stop at the same cycle on both
# engines (the convergence decision is part of the determinism contract).
# The fixed-duration runs above plus the goldens-clean step already prove
# the default mode is byte-unchanged (schema_version 2, no convergence
# sections).
./"$build_dir"/noc_sim --quiet --converge 0.05 \
  -o "$out_dir/converge_uniform_star.json" scenarios/uniform_star.scn
./"$build_dir"/noc_sim --quiet --converge 0.05 --engine naive \
  -o "$out_dir/converge_uniform_star_naive.json" scenarios/uniform_star.scn
cmp "$out_dir/converge_uniform_star.json" \
    "$out_dir/converge_uniform_star_naive.json"
python3 - "$out_dir/converge_uniform_star.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema_version"] == 3, f"schema_version {r.get('schema_version')}"
c = r["convergence"]
assert c["converged"], "canonical scenario failed to converge at 5%"
assert c["rel_err"] <= 0.05, f"reported rel_err {c['rel_err']} above target"
assert c["ci_low"] <= c["mean"] <= c["ci_high"], "CI does not bracket mean"
print(f"  converge smoke: stopped at {c['measured_cycles']} cycles, "
      f"mean {c['mean']:.2f} in [{c['ci_low']:.2f}, {c['ci_high']:.2f}], "
      f"engines byte-identical")
EOF

fi  # verify_only

echo "=== verify: guarantee checkers over canonical scenarios + sweeps ==="
# Every canonical scenario runs with the runtime invariant monitor and the
# analytical GT bound checks armed, on both engines (naive and soa), with
# cross-engine byte-identity of the result JSON enforced by noc_verify
# itself.
./"$build_dir"/noc_verify --quiet scenarios/*.scn
# Every canonical sweep point (and saturation probe) runs checked too,
# once per engine; both engines' verified JSON must equal the committed
# golden byte-for-byte.
for swp in scenarios/sweeps/*.swp; do
  name="$(basename "$swp" .swp)"
  ./"$build_dir"/noc_sweep --quiet --verify --jobs "$(nproc)" \
    -o "$out_dir/verify_${name}.json" "$swp"
  ./"$build_dir"/noc_sweep --quiet --verify --engine naive \
    --jobs "$(nproc)" -o "$out_dir/verify_${name}_naive.json" "$swp"
  cmp "$out_dir/verify_${name}.json" "tests/golden/sweeps/${name}.json"
  cmp "$out_dir/verify_${name}_naive.json" "tests/golden/sweeps/${name}.json"
done
echo "all canonical scenarios and sweeps pass verified on both engines"

echo "=== verify: conformance fuzz (N=$fuzz_n, fixed seed) ==="
# Seeded random topologies / slot allocations / traffic mixes, checkers
# armed, both engines (the sanitize configuration runs this under ASan).
./"$build_dir"/noc_verify --quiet --fuzz "$fuzz_n" --seed 2026
echo "fuzz batch clean: $fuzz_n configs, zero invariant violations"

if [[ "$verify_only" == "1" ]]; then
  echo "CI OK (verify-only: $compiler $build_type fuzz=$fuzz_n)"
  exit 0
fi

echo "=== noc_sweep grid smoke + determinism ==="
./"$build_dir"/noc_sweep --validate scenarios/sweeps/*.swp
# The determinism-under-parallelism contract, enforced on the real
# binary: a canonical sweep must emit byte-identical JSON and CSV for
# --jobs 1 and --jobs 8.
./"$build_dir"/noc_sweep --quiet --jobs 1 \
  -o "$out_dir/sweep_jobs1.json" --csv "$out_dir/sweep_jobs1.csv" \
  scenarios/sweeps/rate_uniform_star.swp
./"$build_dir"/noc_sweep --quiet --jobs 8 \
  -o "$out_dir/sweep_jobs8.json" --csv "$out_dir/sweep_jobs8.csv" \
  scenarios/sweeps/rate_uniform_star.swp
cmp "$out_dir/sweep_jobs1.json" "$out_dir/sweep_jobs8.json"
cmp "$out_dir/sweep_jobs1.csv" "$out_dir/sweep_jobs8.csv"
echo "sweep output byte-identical across --jobs 1 / --jobs 8"
./"$build_dir"/noc_sweep --quiet --jobs 8 --curve rate \
  --csv "$out_dir/sweep_curve.csv" scenarios/sweeps/rate_uniform_star.swp
python3 - "$out_dir/sweep_jobs8.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    sweep = json.load(f)
points = sweep["points"]
assert len(points) >= 4, f"expected a real grid, got {len(points)} points"
for p in points:
    assert p["aggregate"]["words_in_window"] > 0, \
        f"point {p['index']}: no traffic delivered"
print(f"  {sweep['sweep']}: {len(points)} points, all delivering")
EOF

if [[ "$nightly" == "1" ]]; then
  echo "=== nightly: full sweep curve set (every sweep x every axis) ==="
  for swp in scenarios/sweeps/*.swp; do
    name="$(basename "$swp" .swp)"
    for axis in $(awk '$1 == "axis" {print $2}' "$swp"); do
      safe="${axis//./_}"
      ./"$build_dir"/noc_sweep --quiet --jobs "$(nproc)" --curve "$axis" \
        --csv "$out_dir/curve_${name}_${safe}.csv" "$swp"
      echo "  curve ${name} / ${axis}"
    done
  done

  echo "=== nightly: phased-scenario seed soak (verified, both engines) ==="
  # Fresh seeds leave the golden-locked path on purpose: every seed must
  # still pass the full verification layer, and the soa and naive engines
  # must stay byte-identical on each.
  for scn in $(grep -l '^phase ' scenarios/*.scn); do
    name="$(basename "$scn" .scn)"
    for seed in 1001 1002 1003 1004 1005; do
      ./"$build_dir"/noc_sim --quiet --verify --seed "$seed" \
        -o "$out_dir/soak_${name}_${seed}.json" "$scn"
      ./"$build_dir"/noc_sim --quiet --verify --seed "$seed" --engine naive \
        -o "$out_dir/soak_${name}_${seed}_naive.json" "$scn"
      cmp "$out_dir/soak_${name}_${seed}.json" \
          "$out_dir/soak_${name}_${seed}_naive.json"
    done
    echo "  ${name}: 5 seeds verified, engines byte-identical"
  done

  echo "=== nightly: observability artifacts (phased fault scenario) ==="
  # Full-fidelity stats CSV + Chrome trace for the phased fault scenario,
  # uploaded as nightly artifacts so a regression in fault behaviour can
  # be inspected without rerunning anything locally.
  ./"$build_dir"/noc_sim --quiet --sample-every 300 \
    --trace "$out_dir/fault_retry_churn_trace.json" \
    --stats-csv "$out_dir/fault_retry_churn_series.csv" \
    -o "$out_dir/fault_retry_churn_obs.json" scenarios/fault_retry_churn.scn
  ./"$build_dir"/noc_trace "$out_dir/fault_retry_churn_trace.json"
  # Fault events must actually appear in the trace for it to be useful.
  grep -q '"cat":"fault"' "$out_dir/fault_retry_churn_trace.json"
  echo "  fault_retry_churn: stats CSV + trace emitted, fault events present"

  echo "=== nightly: sweep with convergence CIs (artifact) ==="
  # The canonical rate sweep rerun in stop-on-convergence mode: every
  # point carries batch-means error bars in the JSON and the CSV grows
  # the ci_low/ci_high/rel_err columns. Uploaded as a nightly artifact so
  # latency curves can be plotted with confidence intervals directly.
  ./"$build_dir"/noc_sweep --quiet --jobs "$(nproc)" --converge 0.05 \
    -o "$out_dir/converge_rate_uniform_star.json" \
    --csv "$out_dir/converge_rate_uniform_star.csv" \
    scenarios/sweeps/rate_uniform_star.swp
  python3 - "$out_dir/converge_rate_uniform_star.json" \
      "$out_dir/converge_rate_uniform_star.csv" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    sweep = json.load(f)
assert sweep["schema_version"] == 3, \
    f"schema_version {sweep.get('schema_version')}"
n_conv = sum(1 for p in sweep["points"] if p["convergence"]["converged"])
with open(sys.argv[2]) as f:
    header = f.readline().strip().split(",")
for col in ("converged", "ci_low", "ci_high", "rel_err"):
    assert col in header, f"CSV lacks {col} column: {header}"
print(f"  converge sweep: {n_conv}/{len(sweep['points'])} points "
      f"converged, CSV carries CI columns")
EOF
  echo "  sweep-with-CIs artifact emitted"

  echo "=== nightly: fault-fuzz soak (N=200, seeded random fault configs) ==="
  # Random stream workloads each under a random seeded fault mix, checkers
  # armed, both engines: every violation must be classified fault-induced
  # (degradations), nothing unexplained, engines byte-identical.
  ./"$build_dir"/noc_verify --quiet --fault-fuzz 200 --seed 2026
  echo "fault-fuzz soak clean: 200 faulted configs, zero unexplained"
fi

# Perf smoke only where the numbers mean something (optimizer on, no
# sanitizer overhead). The committed BENCH_speed.json is recorded
# trajectory only: absolute rates depend on the host, so CI gates only
# ratios bench_speed measures by interleaving both sides in one process.
if [[ "$build_type" == "Release" && "$sanitize" == "OFF" ]]; then
  echo "=== bench_speed smoke ==="
  bench_args=()
  if [[ "$bench_full" == "1" ]]; then
    bench_args+=(--full)  # adds the 32x32 tier (nightly bench job)
  fi
  ./"$build_dir"/bench_speed "${bench_args[@]}" "$out_dir/BENCH_speed_ci.json"
  python3 - "$out_dir/BENCH_speed_ci.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)

# The gated engine against the naive reference on the sparse 16x16 GT
# pairing (one adjacent pair in eight streams), reps interleaved in one
# process. Ten runs on a 4-vCPU host read 4.02-4.83x with idle-module
# gating and 1.13-1.38x with Module::Park a no-op; the 4x4 mixed ratio
# (1.28-1.38x gated, 1.06-1.15x without) is recorded but too close to its
# no-gating reading to gate on.
ratio = data["speedup_16x16_gt_sparse"]["ratio"]
print(f"bench_speed gate: 16x16 gt_sparse soa/naive flit rate = {ratio:.2f}x")
assert ratio >= 2.0, (
    f"soa engine speedup over naive collapsed (idle-module gating "
    f"lost?): {ratio:.2f}x")

# Armed observability taps against taps off on 8x8 mixed, reps
# interleaved in one process.
obs = data["obs_overhead_8x8_mixed"]
print(f"bench_speed gate: 8x8 mixed armed/off obs flit rate = "
      f"{obs['ratio']:.3f}")
assert obs["ratio"] >= 0.50, (
    f"armed observability taps halved the cycle rate: {obs['ratio']:.3f}")
EOF

  echo "=== bench_sweep smoke ==="
  ./"$build_dir"/bench_sweep "$out_dir/BENCH_sweep_ci.json"
  python3 - "$out_dir/BENCH_sweep_ci.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
cores = data["cores"]
ratio = data["speedup"]["ratio"]
print(f"bench_sweep smoke: jobs=8 speedup = {ratio:.2f}x on {cores} cores")
# The acceptance bar (>= 3x at 8 jobs) needs 8 physical cores; scale the
# floor down for smaller runners and only sanity-check overhead below 2.
if cores >= 8:
    floor = 3.0
elif cores >= 4:
    floor = 2.0
elif cores >= 2:
    floor = 1.3
else:
    floor = 0.8  # 1 core: only catch pathological pool overhead
assert ratio >= floor, \
    f"parallel sweep speedup {ratio:.2f}x below floor {floor}x ({cores} cores)"
EOF

  # The repository benchmark builds its own noc_bench against the library,
  # so this is what notices a library API change that breaks it. The
  # self-test also checks the workload digests, the naive-engine
  # cross-check and sweep jobs=1 vs N (about 10 s).
  echo "=== repository benchmark smoke ==="
  bash benchmark/run.sh --smoke
fi

if [[ "$coverage" == "1" ]]; then
  echo "=== coverage: src/ line-coverage gate ==="
  # Pretty per-file HTML/XML artifacts when gcovr is installed (the CI
  # workflow pip-installs it); the pass/fail gate itself needs only gcov.
  if command -v gcovr >/dev/null 2>&1; then
    gcovr --root . --filter 'src/' \
      --xml "$out_dir/coverage.xml" \
      --html --html-details -o "$out_dir/coverage.html" \
      "$build_dir" || echo "gcovr failed (non-fatal); the gate still runs"
  else
    echo "gcovr not installed; skipping HTML/XML artifacts"
  fi
  python3 scripts/coverage_gate.py "$build_dir" "$out_dir/coverage.json"
fi

echo "CI OK ($compiler $build_type sanitize=$sanitize coverage=$coverage nightly=$nightly)"
