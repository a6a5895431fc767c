"""Desk-scale self-test of the benchmark itself (n = 12, a few seconds).

    python3 bench/selftest.py

Runs every workload untraced and traced at desk sizes and checks that
every metric BENCHMARK.json names is reported with its unit, that spans
nest and account for each job, that one corrupted output byte is counted
as a failed job, and that run.py refuses to run without the library
sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SECONDS = 0.3


class Checks:
    def __init__(self) -> None:
        self.failed = 0

    def __call__(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        self.failed += not ok


def spans_account_for_jobs(spans, threaded: bool) -> bool:
    """Self times in a job's tree sum to the job's duration when every
    span runs on one thread; worker threads can only add to the sum."""
    selfs = tracing.self_times(spans)
    totals: dict[int, float] = {}
    roots = {}
    for s in spans:
        totals[s.job] = totals.get(s.job, 0.0) + selfs[s.sid]
        if s.name == "job":
            roots[s.job] = s.duration
    for job, duration in roots.items():
        slack = 1e-6 * max(1.0, duration)
        if totals[job] < duration - slack:
            return False
        if not threaded and totals[job] > duration + slack:
            return False
    return bool(roots)


def main() -> int:
    check = Checks()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared_e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(declared_layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    ordered = [float(i) for i in range(1, 61)]
    check(run.tail(ordered) == (50.0, 100.0 * 49 / 59, 10), "tail leaves ten samples beyond")
    check(run.tail(ordered[:9]) == (7.0, 75.0, 2),
          "tail falls back to the upper quartile below 41 samples")
    check(workloads.inputs_seed(SEED, None) != workloads.inputs_seed(SEED, SEED),
          "a hold-out seed gives other inputs than the same workload seed")

    workdir = str(run.WORK_ROOT / f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                result, report, spans = run.run_benchmark(
                    name, SEED, SECONDS, trace, sizes=workloads.DESK, workdir=workdir)
                label = f"{name} trace={int(trace)}"
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] >= run.MIN_JOBS, f"{label}: all jobs verified")
                expected = run.PER_LAYER if trace else run.END_TO_END
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == expected, f"{label}: every metric present with its unit")
                check(all(isinstance(v["value"], float) for v in result["metrics"].values()),
                      f"{label}: every value is a number")
                if trace:
                    check(not tracing.check_nesting(spans), f"{label}: spans nest")
                    check(spans_account_for_jobs(spans, threaded=name == "mem_n24"),
                          f"{label}: self times account for each job")
            result, report, _ = run.run_benchmark(
                name, SEED, SECONDS, False, sizes=workloads.DESK, workdir=workdir,
                corrupt=frozenset({1}))
            check(result["failed"] == 1 and not result["correct"]
                  and result["metrics"]["ok_rate"]["value"] < 1.0
                  and report["error_rate"] > 0,
                  f"{name}: one corrupted output byte counts as one failed job")

        stripped = os.path.join(workdir, "stripped")
        os.makedirs(stripped)
        shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(run.ROOT / "bench", os.path.join(stripped, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fold_n22_d12", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0 and "metrics" not in proc.stdout,
              "without src/ run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    print(f"{check.failed} check(s) failed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
