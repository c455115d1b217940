#!/usr/bin/env python3
"""The repository benchmark: five seeded NoC workloads (see README.md).

Run it through benchmark/run.sh, which builds noc_bench first.

  run.sh --workload W --seed N --seconds S --trace 0|1 [--reps N]
      one workload: ten untraced reps, the correctness cross-check and,
      with --trace 1, the traced pass. The last stdout line is one JSON
      object {correct, attempted, failed, metrics}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.
  run.sh [--seed N] [--reps N] [--out FILE]
      every workload, reps round-robin across workloads, then the
      cross-checks and traced passes; prints every metric and writes the
      results (default benchmark/out/results.json) for compare.py.
--seconds scales every workload's length (10 is the nominal length).
  run.sh --smoke
      the self-test: one rep of everything at 1/10 length, checked against
      the metric names and units in BENCHMARK.json.

Every rep, cross-check and traced pass is its own noc_bench process. The
spans of all of them are merged into benchmark/out/spans.json (Chrome
trace format) at exit.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
NOC_BENCH = os.path.join(OUT, "build", "noc_bench")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

WORKLOADS = ["mesh16_mixed", "mesh16_gt_sparse", "mesh4_churn",
             "mesh8_observed", "mesh8_be_saturation"]
# Workload lengths are sized so that one rep takes about 1 s on a 4-core
# host, i.e. REPS reps fill NOMINAL_SECONDS; --seconds scales them.
NOMINAL_SECONDS = 10
REPS = 10


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# End-to-end metrics: unit, the statistic over a run's reps, and the power
# of the rep's host factor (below) its value is multiplied by: -1 for a
# time, +1 for a rate, 0 for memory. Host interference only ever adds
# time, so each statistic is the best rep: minimum time, maximum rate. A
# rep's own set-up time is already the median of the set-ups it made.
END_TO_END = {
    "wall_s": ("s", min, -1),
    "sim_kcycles_per_s": ("kcycles/s", max, 1),
    "setup_s": ("s", min, -1),
    "peak_rss_mb": ("MiB", min, 0),
}
# Best time of noc_bench's calibration walk on the reference host, the
# 4-vCPU Xeon VM that README.md records. A rep's host factor is its own
# best walk time over this, so host times are reported at the reference
# host's speed: on a shared host, slowdowns that moved the raw medians of
# ten seeds by up to 18% between two back-to-back sets moved the
# normalised ones by at most 6.4%.
CALIBRATION_REF_S = 0.0035


class BenchError(Exception):
    pass


class Spans:
    """Spans of this script and of every noc_bench process it runs."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent]

    def open(self, name, parent=-1):
        self.spans.append([name, time.monotonic_ns(), None, parent])
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][2] = time.monotonic_ns()

    def adopt(self, child_spans, parent):
        """Appends a child process's spans (same monotonic clock)."""
        base = len(self.spans)
        for name, start, end, p in child_spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p])

    def write(self, path):
        """Writes the Chrome trace; spans left open (a failed run) end now.
        A span's self time is its duration minus its children's."""
        now = time.monotonic_ns()
        for s in self.spans:
            s[2] = s[2] or now
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": start / 1e3, "dur": (end - start) / 1e3,
                   "args": {"id": i, "parent": parent, "self_us": own[i] / 1e3}}
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def noc_bench(args, spans, label, parent):
    span = spans.open(label, parent)
    proc = subprocess.run([NOC_BENCH, *args], capture_output=True, text=True)
    spans.close(span)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("noc_bench %s failed: %s"
                         % (" ".join(args), proc.stderr.strip()))
    out = json.loads(lines[-1])
    spans.adopt(out.pop("spans"), span)
    return out, span


class Workload:
    """Every measurement of one workload at one seed and scale."""

    def __init__(self, name, seed, scale):
        self.name = name
        self.args = ["--workload", name, "--seed", str(seed),
                     "--scale", repr(scale)]
        self.reps = []     # raw per-rep values: end-to-end, run, calibration
        self.digests = []  # result digest of every rep and the traced run
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.layers = None
        self.rep_self_share = []  # rep span time not covered by child spans

    def _count(self, out):
        self.attempted += out["ops"]
        self.failed += out["failed"]
        if out["error"]:
            self.errors.append(out["error"])

    def _digest(self, out, ops):
        if self.digests and out["digest"] != self.digests[0]:
            self.failed += ops
            self.errors.append("result differs between reps")
        self.digests.append(out["digest"])

    def rep(self, spans, parent):
        out, span = noc_bench(self.args + ["--mode", "rep"], spans,
                              "rep " + self.name, parent)
        self._count(out)
        self._digest(out, out["ops"])
        run = out["run_s"]
        self.reps.append({
            "wall_s": out["wall_s"],
            "setup_s": out["setup_s"],
            "sim_kcycles_per_s": out["cycles"] / run / 1e3 if run else 0.0,
            "peak_rss_mb": out["rss_mb"],
            "run_s": run,
            "calibration_s": out["calibration_s"],
        })
        rep, process = spans.spans[span], spans.spans[span + 1]
        self.rep_self_share.append(
            1 - (process[2] - process[1]) / (rep[2] - rep[1]))

    def crosscheck(self, spans, parent):
        out, _ = noc_bench(self.args + ["--mode", "crosscheck"], spans,
                           "crosscheck " + self.name, parent)
        self._count(out)

    def trace(self, spans, parent):
        base = min(r["run_s"] for r in self.reps)
        out, _ = noc_bench(self.args + ["--mode", "trace", "--base-run-s",
                                        repr(base)],
                           spans, "trace " + self.name, parent)
        self._count(out)
        self._digest(out, 1)
        self.layers = out["metrics"]

    def correct(self):
        return self.failed == 0 and not self.errors

    def host_factors(self):
        """Each rep's best calibration walk over the reference host's."""
        return [r["calibration_s"] / CALIBRATION_REF_S for r in self.reps]

    def end_to_end(self):
        result = {}
        for name, (unit, stat, power) in END_TO_END.items():
            values = [r[name] * f ** power
                      for r, f in zip(self.reps, self.host_factors())]
            q1, q3 = quartiles(values)
            result[name] = {"value": stat(values), "unit": unit,
                            "median": statistics.median(values),
                            "q1": q1, "q3": q3, "reps": values}
        return result

    def report(self):
        return {"correct": self.correct(), "attempted": self.attempted,
                "failed": self.failed,
                "error_rate": self.failed / max(self.attempted, 1),
                "errors": self.errors, "end_to_end": self.end_to_end(),
                "raw_reps": self.reps,
                "per_layer": self.layers or {}}


def write_specs(seed):
    specs = os.path.join(OUT, "specs")
    proc = subprocess.run([NOC_BENCH, "--write-specs", specs,
                           "--seed", str(seed)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("writing specs failed: " + proc.stderr.strip())


def measure(names, seed, scale, reps, trace, spans):
    """Reps round-robin across workloads, then cross-checks, then traces."""
    workloads = [Workload(n, seed, scale) for n in names]
    root = spans.open("benchmark seed %d" % seed)
    for r in range(reps):
        round_span = spans.open("round %d" % r, root)
        for w in workloads:
            w.rep(spans, round_span)
        spans.close(round_span)
    for w in workloads:
        w.crosscheck(spans, root)
    if trace:
        for w in workloads:
            w.trace(spans, root)
    spans.close(root)
    return workloads


def fmt(value):
    return "%.6g" % value


def print_workload(w):
    print("%s: %s, %d ops attempted, %d failed, median host factor %.3f%s"
          % (w.name, "correct" if w.correct() else "INCORRECT", w.attempted,
             w.failed, statistics.median(w.host_factors()),
             "; " + "; ".join(w.errors) if w.errors else ""))
    for name, m in w.end_to_end().items():
        print("  %-32s %12s %-10s median %s  q1 %s  q3 %s"
              % (name, fmt(m["value"]), m["unit"], fmt(m["median"]),
                 fmt(m["q1"]), fmt(m["q3"])))
    for name, m in (w.layers or {}).items():
        print("  %-32s %12s %s" % (name, fmt(m["value"]), m["unit"]))


def check_against_benchmark_json(workloads):
    """The self-test: every metric BENCHMARK.json names is emitted, with
    its unit, on every workload it names."""
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    problems = []
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from " + str(WORKLOADS))
    for w in workloads:
        if not w.correct():
            problems.append("%s is not correct: %s" % (w.name, w.errors))
        for kind, emitted in (("end_to_end", w.end_to_end()),
                              ("per_layer", w.layers or {})):
            for m in spec[kind]:
                got = emitted.get(m["name"])
                if got is None:
                    problems.append("%s: %s not emitted" % (w.name, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, BENCHMARK.json %s"
                                    % (w.name, m["name"], got["unit"],
                                       m["unit"]))
            extra = set(emitted) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append("%s: %s not in BENCHMARK.json %s"
                                % (w.name, sorted(extra), kind))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=REPS)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.reps < 1 or args.seconds <= 0:
        parser.error("--reps and --seconds must be positive")

    os.makedirs(OUT, exist_ok=True)
    spans = Spans()
    start = time.monotonic()
    try:
        write_specs(args.seed)
        workloads = measure(
            [args.workload] if args.workload else WORKLOADS, args.seed,
            0.1 if args.smoke else args.seconds / NOMINAL_SECONDS,
            1 if args.smoke else args.reps,
            args.trace == 1 if args.workload else True, spans)
    except BenchError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        spans.write(os.path.join(OUT, "spans.json"))

    for w in workloads:
        print_workload(w)
    print("rep wall time outside noc_bench's spans (process start, exit): "
          "max %.2f%%" % (100 * max(s for w in workloads
                                    for s in w.rep_self_share)))
    print("elapsed %.1f s" % (time.monotonic() - start))
    results = {"seed": args.seed,
               "workloads": {w.name: w.report() for w in workloads}}
    out_path = args.out or (None if args.workload or args.smoke
                            else os.path.join(OUT, "results.json"))
    if out_path:
        with open(out_path, "w") as f:
            json.dump(results, f, indent=1)
        print("results written to " + out_path)

    if args.smoke:
        problems = check_against_benchmark_json(workloads)
        for p in problems:
            print("smoke: " + p)
        print("smoke: %s" % ("FAILED" if problems else "OK"))
        return 1 if problems else 0
    if args.workload:
        w = workloads[0]
        metrics = w.layers if args.trace else {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in w.end_to_end().items()}
        print(json.dumps({"correct": w.correct(), "attempted": w.attempted,
                          "failed": w.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
