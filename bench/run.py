"""bigwht benchmark: one workload, closed loop, one job at a time.

    python3 bench/run.py --workload ext_n24_b20 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Set-up makes the inputs from ``--seed`` (or from
``--holdout-seed``, a stream family no ``--seed`` reaches) and computes
reference outputs with the serial kernel, at least three times, reporting
the median. One untimed warm-up job follows; jobs then run back to back
for ``--seconds``. Every job, the warm-up too, is verified after its
timed span. With ``--trace 0`` the last stdout line carries the
end-to-end metrics. With ``--trace 1`` the first half of the time runs
untraced and the second half traced, and the last line carries the
per-layer metrics derived from the spans. The line before it is a JSON
report: environment, per-job seconds, median, tail percentile and
sample counts, checks, model.

Temporary files live in ``.benchwork/`` at the checkout root and are
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import environment
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".benchwork"

# Set-up runs SETUP_REPEATS times, and more (up to SETUP_MAX_REPEATS)
# until SETUP_MIN_S have passed, so a short set-up still gives a steady median.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_S = 3.0
MIN_JOBS = 3
TAIL_BEYOND = 10
MB = 1e6
BYTES_PER_BUTTERFLY = 32  # computed traffic: two int64 read, two written

END_TO_END = {
    "job_s_p75": "s",
    "job_s_tail": "s",
    "melem_per_s": "Melem/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

PER_LAYER = {
    "core.fwht_array.calls": "count",
    "core.fwht_array.self_s": "s",
    "core.mbfly_per_s": "Mbfly/s",
    "core.bytes_moved": "B_computed",
    "core.check_magnitude_bound.self_s": "s",
    "parallel.phase0_s": "s",
    "parallel.stage_phases_s": "s",
    "parallel.speedup": "x",
    "dataset.read_block.calls": "count",
    "dataset.read_block.self_s": "s",
    "dataset.write_block.calls": "count",
    "dataset.write_block.self_s": "s",
    "dataset.flush.calls": "count",
    "dataset.flush.self_s": "s",
    "dataset.set_progress_marker.calls": "count",
    "dataset.set_progress_marker.self_s": "s",
    "dataset.read_mb_per_s": "MB/s",
    "dataset.write_mb_per_s": "MB/s",
    "dataset.bytes_read": "B",
    "dataset.bytes_written": "B",
    "external.passes": "count",
    "external.pass0_s": "s",
    "external.stage_pass_s": "s",
    "external.bytes_per_pass": "B",
    "external.self_s": "s",
    "external.pass_over_copy": "x",
    "iobench.copy_s": "s",
    "iobench.copy_mb_per_s": "MB/s",
    "iobench.copy_direct_mb_per_s": "MB/s",
    "perfmodel.predicted_s": "s",
    "perfmodel.measured_over_predicted": "x",
    "noisy.extract_above_dataset.self_s": "s",
    "noisy.extract.recall": "ratio",
    "noisy.extract.precision": "ratio",
    "subspace.fold_dataset.self_s": "s",
    "subspace.apply_map_array.self_s": "s",
    "subspace.random_full_rank.self_s": "s",
    "trace.overhead": "x",
    "trace.accounted_share": "ratio",
}

# Span names whose per-job call count and self time are reported.
COUNTED_SPANS = ("core.fwht_array", "dataset.read_block", "dataset.write_block",
                 "dataset.flush", "dataset.set_progress_marker")
TIMED_SPANS = COUNTED_SPANS + ("core.check_magnitude_bound",
                               "noisy.extract_above_dataset", "subspace.fold_dataset",
                               "subspace.apply_map_array", "subspace.random_full_rank")

# The paper's reference figure: default PerfParams at n = 32, B = 30.
PAPER_N32_B30_SECONDS = 1678.0


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path; refuse without it."""
    if not (SRC / "bigwht" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bigwht sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class RssSampler:
    """Peak resident set of this process while the block runs, sampled
    every few milliseconds from /proc/self/statm."""

    PERIOD = 0.004

    def __init__(self) -> None:
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0

    def _rss(self, fd: int) -> int:
        return int(os.pread(fd, 128, 0).split()[1]) * self.page

    def __enter__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._stop = threading.Event()
        self.peak = self._rss(self._fd)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self.peak = max(self.peak, self._rss(self._fd))

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss(self._fd))
        os.close(self._fd)
        return False


@dataclass
class JobRecord:
    index: int
    seconds: float
    ok: bool
    peak_rss: int
    figures: dict


def run_jobs(workload, seconds: float, tracer, first: int, corrupt: frozenset,
             min_jobs: int = MIN_JOBS) -> list[JobRecord]:
    """Closed loop: the next job starts when the previous one is verified."""
    records = []
    started = perf_counter()
    index = first
    while len(records) < min_jobs or perf_counter() - started < seconds:
        workload.prepare(index)
        out = None
        with RssSampler() as rss:
            t0 = perf_counter()
            try:
                with tracer.job(index):
                    out = workload.job(index, tracer)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            elapsed = perf_counter() - t0
        ok = False
        if out is not None:
            if index in corrupt:
                workload.corrupt(out)
            try:
                ok = workload.verify(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        records.append(JobRecord(index, elapsed, ok, rss.peak,
                                 out.figures if out is not None else {}))
        index += 1
    return records


def upper_quartile(times: list[float]) -> float:
    """75th percentile, interpolated between order statistics."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile
    with at least ten samples beyond it, never below the upper quartile;
    with fewer than 41 samples that is the upper quartile itself."""
    ordered = sorted(times)
    n = len(ordered)
    q3 = upper_quartile(ordered)
    k = n - 1 - TAIL_BEYOND
    if k >= 0 and ordered[k] >= q3:
        return ordered[k], 100.0 * k / (n - 1), TAIL_BEYOND
    return q3, 75.0, sum(t > q3 for t in ordered)


def end_to_end(workload, warmup, records, setup_times) -> tuple[dict, dict]:
    """Timings come from the timed ``records``; ``ok_rate`` counts the
    warm-up jobs too."""
    good = [r for r in records if r.ok] or records
    times = [r.seconds for r in good]
    value, pct, beyond = tail(times)
    # The upper quartile, not the median, is the gated job time: on a
    # shared 2-vCPU Xeon (2.1 GHz) VM, single-threaded jobs speed up by as
    # much as 1.6x in bursts of 5-15 s, and the share of a run those
    # bursts cover varies from run to run. The median flips between the
    # two speeds; the upper quartile stays on the slower, steady one
    # unless bursts cover three quarters of the run.
    q3 = upper_quartile(times)
    metrics = {
        "job_s_p75": q3,
        "job_s_tail": value,
        # Throughput three jobs in four meet or beat.
        "melem_per_s": workload.elements / q3 / MB,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": (max(r.peak_rss for r in records) - workload.held_bytes) / MB,
        "ok_rate": sum(r.ok for r in warmup + records) / len(warmup + records),
    }
    detail = {"jobs": len(warmup + records), "tail_percentile": pct,
              "tail_samples_beyond": beyond, "timed_jobs": len(times),
              "job_s_p50": statistics.median(times),
              "job_seconds": [round(t, 6) for t in times]}
    return metrics, detail


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def span_figures(spans) -> dict[int, dict]:
    """Per traced job: call counts, self times, work and pass boundaries."""
    self_s = tracing.self_times(spans)
    jobs: dict[int, dict] = {}
    by_job: dict[int, list] = {}
    for s in spans:
        by_job.setdefault(s.job, []).append(s)
    for job, group in by_job.items():
        fig: dict[str, float] = {}
        root = next(s for s in group if s.name == "job")
        for s in group:
            fig[s.name + ".calls"] = fig.get(s.name + ".calls", 0) + 1
            fig[s.name + ".self_s"] = fig.get(s.name + ".self_s", 0.0) + self_s[s.sid]
            fig[s.name + ".work"] = fig.get(s.name + ".work", 0.0) + s.work
        fig["trace.accounted_share"] = 1.0 - self_s[root.sid] / root.duration
        # A pass ends with the engine's flush; the first starts when the
        # engine has written its initial progress marker.
        markers = sorted((s for s in group if s.name == "dataset.set_progress_marker"),
                         key=lambda s: s.start)
        flushes = sorted((s.end for s in group if s.name == "dataset.flush"))
        if markers and flushes:
            bounds = [markers[0].end] + flushes
            passes = [b - a for a, b in zip(bounds, bounds[1:])]
            fig["external.pass0_s"] = passes[0]
            fig["external.stage_pass_s"] = _median_or_zero(passes[1:])
        jobs[job] = fig
    return jobs


def per_layer(workload, untraced, traced, spans, extras) -> dict:
    per_job = span_figures(spans)
    for r in traced:
        per_job.setdefault(r.index, {}).update(r.figures)
    jobs = [per_job[r.index] for r in traced if r.ok and r.index in per_job]

    def med(key: str) -> float:
        return _median_or_zero(j[key] for j in jobs if key in j)

    untraced_p50 = statistics.median(r.seconds for r in untraced)
    traced_p50 = statistics.median(r.seconds for r in traced)
    m = {name: 0.0 for name in PER_LAYER}
    for name in COUNTED_SPANS:
        m[name + ".calls"] = med(name + ".calls")
    for name in TIMED_SPANS:
        m[name + ".self_s"] = med(name + ".self_s")
    kernel_s = m["core.fwht_array.self_s"]
    if kernel_s > 0:
        m["core.mbfly_per_s"] = med("core.fwht_array.work") / kernel_s / MB
    m["core.bytes_moved"] = BYTES_PER_BUTTERFLY * med("core.fwht_array.work")
    for op, metric in (("read_block", "read_mb_per_s"), ("write_block", "write_mb_per_s")):
        busy = m[f"dataset.{op}.self_s"]
        if busy > 0:
            m["dataset." + metric] = med(f"dataset.{op}.work") / busy / MB
    for key in ("parallel.phase0_s", "parallel.stage_phases_s", "dataset.bytes_read",
                "dataset.bytes_written", "external.passes", "external.pass0_s",
                "external.stage_pass_s", "external.bytes_per_pass",
                "noisy.extract.recall", "noisy.extract.precision",
                "trace.accounted_share"):
        m[key] = med(key)
    m["external.self_s"] = med("external.run_external_blocked.self_s")
    if workload.name == "mem_n24":
        m["parallel.speedup"] = workload.serial_s / untraced_p50
    m.update({k: v for k, v in extras.items() if k in PER_LAYER})
    if m["iobench.copy_s"] > 0:
        m["external.pass_over_copy"] = m["external.stage_pass_s"] / m["iobench.copy_s"]
    if m["perfmodel.predicted_s"] > 0:
        transform = _median_or_zero(r.figures["transform_s"] for r in untraced if r.ok)
        m["perfmodel.measured_over_predicted"] = transform / m["perfmodel.predicted_s"]
    m["trace.overhead"] = traced_p50 / untraced_p50
    return m


def io_and_model(workload, sizes, workdir: str, seed: int) -> tuple[dict, dict]:
    """iobench copy at the dataset's size and the calibrated model's
    prediction for the external workload."""
    from bigwht import iobench, perfmodel

    report = iobench.sweep(workdir, sizes.copy_bytes, [sizes.copy_block],
                           measure_raw=False, seed=seed % (1 << 31))
    row = report.rows[0]
    if row.error:
        raise RuntimeError(f"iobench copy failed: {row.error}")
    direct = iobench.measure_copy(workdir, sizes.copy_bytes, sizes.copy_block,
                                  direct_io=True, seed=seed % (1 << 31) + 1)
    params = perfmodel.calibrate(report, (workload.n, workload.serial_s))
    est = perfmodel.estimate(params, workload.n, workload.b)
    extras = {
        "iobench.copy_s": row.copy_seconds,
        "iobench.copy_mb_per_s": row.copy_mbps,
        "iobench.copy_direct_mb_per_s": direct.mbps if direct.direct_io else 0.0,
        "perfmodel.predicted_s": est.total_seconds,
    }
    detail = {
        "copy_bytes": sizes.copy_bytes, "copy_block_bytes": sizes.copy_block,
        "direct_io_opened": direct.direct_io, "direct_warnings": direct.warnings,
        "calibrated": {"t_cpu_ref_seconds": params.t_cpu_ref_seconds,
                       "n_ref": params.n_ref, "t_cp_seconds": params.t_cp_seconds,
                       "unit_log2_dim": params.unit_log2_dim},
        "estimate": {"q": est.q, "t_cpu_s": est.t_cpu_seconds, "t_io_s": est.t_io_seconds,
                     "total_s": est.total_seconds},
        "paper_io_overhead": perfmodel.OBSERVED_IO_OVERHEAD,
    }
    return extras, detail


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, *,
                  holdout_seed: int | None = None, sizes=None,
                  corrupt: frozenset = frozenset(), workdir: str | None = None):
    """Set up, run and verify one workload; returns (result, report, spans)."""
    import workloads
    from bigwht import perfmodel

    sizes = sizes or workloads.Sizes()
    own_dir = workdir is None
    if own_dir:
        workdir = str(WORK_ROOT / f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    input_seed = workloads.inputs_seed(seed, holdout_seed)
    workload = workloads.WORKLOADS[name](sizes, input_seed, workdir)
    try:
        checks = {
            "kernel_vs_bruteforce_n12": workloads.oracle_agrees(workload),
            "perfparams_n32_b30_1678s": math.isclose(
                perfmodel.estimate(perfmodel.PerfParams(), 32, 30).total_seconds,
                PAPER_N32_B30_SECONDS, rel_tol=0, abs_tol=1e-9),
        }
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)
        report = {
            "workload": name, "seed": seed, "holdout_seed": holdout_seed,
            "inputs_seed": input_seed, "seconds": seconds, "trace": int(trace),
            "environment": environment.describe(workdir, workload.dataset_bytes),
            "setup_s_runs": setup_times, "serial_fwht_s": workload.serial_s,
            "checks": checks,
        }
        null = tracing.NullTracer()
        ticks = environment.cpu_ticks()
        # One verified, untimed job first, so caches and allocator are warm.
        warmup = run_jobs(workload, 0.0, null, 0, corrupt, min_jobs=1)
        if not trace:
            timed = run_jobs(workload, seconds, null, len(warmup), corrupt)
            metrics, detail = end_to_end(workload, warmup, timed, setup_times)
            report.update(detail)
            records = warmup + timed
            spans = []
        else:
            untraced = run_jobs(workload, seconds / 2, null, len(warmup), corrupt)
            tracer = tracing.Tracer()
            handle = tracing.install(tracer)
            try:
                traced = run_jobs(workload, seconds / 2, tracer, len(untraced), corrupt)
            finally:
                handle.remove()
            spans = tracer.spans
            records = warmup + untraced + traced
            extras = {}
            if name == "ext_n24_b20":
                extras, report["model"] = io_and_model(workload, sizes, workdir, input_seed)
            metrics = per_layer(workload, untraced, traced, spans, extras)
            report["jobs"] = len(records)
            report["span_problems"] = tracing.check_nesting(spans)[:5]
        report["steal_share"] = environment.steal_share(ticks, environment.cpu_ticks())
        failed = sum(not r.ok for r in records)
        report["error_rate"] = failed / len(records)
        units = PER_LAYER if trace else END_TO_END
        result = {
            "correct": failed == 0 and all(checks.values()),
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        return result, report, spans
    finally:
        workload.cleanup()
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass


def main(argv=None) -> int:
    load_library()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seed", type=int, default=None,
                        help="draw inputs from the hold-out stream family instead")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.holdout_seed is not None and args.holdout_seed < 0):
        parser.error("seeds must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result, report, _ = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace), holdout_seed=args.holdout_seed)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
