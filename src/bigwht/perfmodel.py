"""Runtime model: T = T_cpu + T_io.

T_cpu scales linearly with the problem size 2**n from a measured
reference point. T_io is q * T_cp where q = n - B + 1 is the number of
disk passes and T_cp the measured time to copy the whole dataset once on
the same disk, itself scaled linearly from a reference size. Defaults
reproduce the reference machine this model was fitted on: 2.5 s of CPU at
n = 26 and a 506 s copy of the 32 GB dataset (n = 32).

The model is pure arithmetic; ``calibrate`` ties it to io-bench output
for the local machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bits import is_power_of_two
from .errors import BadArguments, EmptyReport
from .external import plan_external
from .iobench import IoBenchReport
from .subspace import coverage_model

CPU_REF_SECONDS_DEFAULT = 2.5
CPU_REF_LOG2_DIM_DEFAULT = 26
COPY_REF_SECONDS_DEFAULT = 506.0
COPY_REF_LOG2_DIM_DEFAULT = 32

# Ratio of observed per-pass time to the plain copy time on the reference
# rotation disk (577 s real vs 506 s theoretical).
OBSERVED_IO_OVERHEAD = 577.0 / 506.0

# Flash beat the reference rotation disk by a stable ~1/3 in speed, i.e.
# copy times shrink to about 3/4.
FLASH_SPEED_FACTOR = 4.0 / 3.0

# The reference-runtime table's grid: dimensions n and memory budgets B.
TABLE_LOG2_DIMS = range(32, 41)
TABLE_MEM_LOG2 = (29, 30)


@dataclass(frozen=True)
class PerfParams:
    t_cpu_ref_seconds: float = CPU_REF_SECONDS_DEFAULT
    n_ref: int = CPU_REF_LOG2_DIM_DEFAULT
    t_cp_seconds: float = COPY_REF_SECONDS_DEFAULT
    unit_log2_dim: int = COPY_REF_LOG2_DIM_DEFAULT
    io_overhead: float = 1.0
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("t_cpu_ref_seconds", "t_cp_seconds", "io_overhead",
                     "speed_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise BadArguments(
                    f"{name} must be finite and strictly positive"
                )
        if self.n_ref < 0 or self.unit_log2_dim < 0:
            raise BadArguments("reference dimensions must be >= 0")


@dataclass(frozen=True)
class PerfEstimate:
    log2_dim: int
    mem_log2: int
    q: int
    t_cpu_seconds: float
    t_io_seconds: float
    total_seconds: float

    @property
    def total_hours(self) -> float:
        return self.total_seconds / 3600.0

    @property
    def total_days(self) -> float:
        return self.total_seconds / 86400.0


@dataclass(frozen=True)
class DistributedEstimate:
    per_machine_seconds: float
    expected_coverage: float
    machines: int
    fold_cpu_seconds: float
    reduced_io_seconds: float


def t_cpu(params: PerfParams, n: int) -> float:
    return params.t_cpu_ref_seconds * 2.0 ** (n - params.n_ref)


def t_cp(params: PerfParams, n: int) -> float:
    """Copy time for a 2**n dataset, with overhead and disk-speed scaling."""
    base = params.t_cp_seconds * 2.0 ** (n - params.unit_log2_dim)
    return base * params.io_overhead / params.speed_factor


def estimate(params: PerfParams, n: int, mem_log2: int) -> PerfEstimate:
    """Predict the external-WHT runtime for dimension 2**n at budget B.

    q is the pass count of the disk plan ``external.plan_external``
    builds, n - B + 1 for the paper's modes, so the model and the engine
    count passes in one place. Raises ``BadArguments`` when the runtime
    is beyond a float.
    """
    if mem_log2 < 1 or n < mem_log2:
        raise BadArguments(f"need n >= B >= 1, got n={n}, B={mem_log2}")
    q = plan_external(n, mem_log2, 1).q
    try:
        cpu = t_cpu(params, n)
        io = q * t_cp(params, n)
    except OverflowError:
        cpu = io = math.inf
    if not math.isfinite(cpu + io):
        raise BadArguments(
            f"the modelled runtime for n={n}, B={mem_log2} is too large to "
            f"represent"
        )
    return PerfEstimate(
        log2_dim=n,
        mem_log2=mem_log2,
        q=q,
        t_cpu_seconds=cpu,
        t_io_seconds=io,
        total_seconds=cpu + io,
    )


def estimate_distributed(
    params: PerfParams,
    n_source: int,
    n_reduced: int,
    mem_log2: int,
    machines: int,
) -> DistributedEstimate:
    """Fleet estimate: every machine folds the 2**n_source stream down to
    2**n_reduced, then runs the external WHT on its own subspace.

    Per-machine time is the fold's CPU cost at source scale plus the
    reduced run's I/O cost (the reduced run's own in-memory time is
    negligible against the fold and is not counted). Expected coverage is
    ``subspace.coverage_model``: the chance a nonzero coefficient index
    lands in at least one of the ``machines`` random subspaces.
    """
    if machines < 1:
        raise BadArguments(f"machines must be >= 1, got {machines}")
    if not (n_source >= n_reduced >= mem_log2 >= 1):
        raise BadArguments(
            f"need n_source >= n_reduced >= B >= 1, got "
            f"{n_source}, {n_reduced}, {mem_log2}"
        )
    fold_cpu = estimate(params, n_source, mem_log2).t_cpu_seconds
    reduced = estimate(params, n_reduced, mem_log2)
    return DistributedEstimate(
        per_machine_seconds=fold_cpu + reduced.t_io_seconds,
        expected_coverage=coverage_model(n_source, n_reduced, machines),
        machines=machines,
        fold_cpu_seconds=fold_cpu,
        reduced_io_seconds=reduced.t_io_seconds,
    )


def calibrate(
    report: IoBenchReport, measured_cpu: tuple[int, float]
) -> PerfParams:
    """Derive model parameters from an io-bench report and one timed
    in-memory transform (n, seconds).

    Uses the largest successful block size's copy time -- copy time
    converges as blocks grow, so that row is the best T_cp available.
    The CPU reference is normalized to the standard n = 26 point.
    """
    ok = [r for r in report.rows if r.error is None and r.copy_seconds]
    if not ok:
        raise EmptyReport("io-bench report has no successful measurements")
    best = max(ok, key=lambda r: r.block_bytes)
    elems = report.file_bytes // 8
    if report.file_bytes % 8 or not is_power_of_two(elems):
        raise BadArguments(
            f"calibration needs a power-of-two element count; "
            f"{report.file_bytes} bytes is not 8 * 2**k"
        )
    n_meas, cpu_seconds = measured_cpu
    if cpu_seconds <= 0 or n_meas < 0:
        raise BadArguments("measured_cpu must be (n >= 0, seconds > 0)")
    return PerfParams(
        t_cpu_ref_seconds=cpu_seconds
        * 2.0 ** (CPU_REF_LOG2_DIM_DEFAULT - n_meas),
        n_ref=CPU_REF_LOG2_DIM_DEFAULT,
        t_cp_seconds=best.copy_seconds,
        unit_log2_dim=elems.bit_length() - 1,
    )


def with_observed_overhead(params: PerfParams) -> PerfParams:
    return replace(params, io_overhead=OBSERVED_IO_OVERHEAD)


def format_estimate(est: PerfEstimate) -> str:
    def human(seconds: float) -> str:
        if seconds >= 2 * 86400:
            return f"{seconds / 86400:.1f} days"
        if seconds >= 2 * 3600:
            return f"{seconds / 3600:.2f} hours"
        return f"{seconds:.0f} s"

    return (
        f"n={est.log2_dim} B={est.mem_log2}: q={est.q} passes, "
        f"t_cpu={est.t_cpu_seconds:.1f}s, t_io={est.t_io_seconds:.1f}s, "
        f"total={est.total_seconds:.1f}s ({human(est.total_seconds)})"
    )


def table_hours(params: PerfParams) -> dict[int, dict[int, float]]:
    """Reference-runtime table: hours per dimension for each memory budget."""
    return {n: {b: estimate(params, n, b).total_hours for b in TABLE_MEM_LOG2}
            for n in TABLE_LOG2_DIMS}


def format_table(params: PerfParams) -> str:
    """``table_hours`` as text, one row per dimension."""
    cols = "".join(f"  B={b} (h)" for b in TABLE_MEM_LOG2)
    lines = [f"{'n':>4}{cols}"]
    for n, hours in table_hours(params).items():
        cells = "".join(f"{h:>9.2f}" for h in hours.values())
        lines.append(f"{n:>4}{cells}")
    return "\n".join(lines) + "\n"
