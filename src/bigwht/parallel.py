"""Data-parallel in-memory WHT for m = 2**p workers.

The schedule runs p+1 phases separated by full barriers. Phase 0 gives
each worker an independent WHT over a contiguous chunk of 2**(n-p)
elements; each remaining phase covers one butterfly stage k in
n-p .. n-1, split into m equal workloads of consecutive butterflies.
Within a phase the index sets touched by distinct subtasks are pairwise
disjoint, which is what makes the shared-buffer mutation safe; the plan
checker below proves it for any concrete plan.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Signal, Domain, butterfly, check_magnitude_bound, fwht_array
from .errors import BadArguments, InvalidWorkerCount, ValidationError


@dataclass(frozen=True)
class Workload:
    """A run of ``count`` consecutive butterflies starting at ``start``.

    Every butterfly pairs buf[pt] with buf[pt + stride] for
    pt = start .. start + count - 1. Because count never exceeds the
    stride (count = 2**(n-1-p) <= 2**k), the pointer needs no skip
    correction inside a workload.
    """

    start: int
    stride: int
    count: int

    def index_ranges(self) -> tuple[range, range]:
        return (
            range(self.start, self.start + self.count),
            range(self.start + self.stride, self.start + self.stride + self.count),
        )


@dataclass(frozen=True)
class Phase:
    """One barrier-delimited group of subtasks.

    stage is None for the initial chunk-WHT phase, otherwise the butterfly
    stage index k. chunks holds (start, length) pairs for the initial
    phase; workloads holds the Workload list for stage phases.
    """

    stage: int | None
    chunks: tuple[tuple[int, int], ...] = ()
    workloads: tuple[Workload, ...] = ()

    def index_sets(self) -> list[set[int]]:
        if self.stage is None:
            return [set(range(s, s + length)) for s, length in self.chunks]
        sets = []
        for w in self.workloads:
            lo, hi = w.index_ranges()
            sets.append(set(lo) | set(hi))
        return sets


@dataclass(frozen=True)
class ParallelPlan:
    log2_dim: int
    log2_workers: int
    phases: tuple[Phase, ...]

    @property
    def workers(self) -> int:
        return 1 << self.log2_workers


def plan_parallel(n: int, p: int) -> ParallelPlan:
    """Build the (p+1)-phase schedule for dimension 2**n on 2**p workers.

    Phase 0: worker w transforms the chunk starting at w * 2**(n-p).
    Stage-k phase: worker w runs the t-th run of 2**(n-1-p) consecutive
    butterflies, t = w * 2**(n-1-p), starting at
    ((t >> k) << (k+1)) | (t & (2**k - 1)).
    """
    if p < 1 or p > n - 1:
        raise InvalidWorkerCount(
            f"need 1 <= p <= n-1 (got p={p}, n={n}); "
            f"p=0 means a serial transform"
        )
    m = 1 << p
    chunk = 1 << (n - p)
    phases = [Phase(stage=None, chunks=tuple((w * chunk, chunk) for w in range(m)))]
    count = 1 << (n - 1 - p)
    for k in range(n - p, n):
        workloads = []
        for w in range(m):
            t = w * count
            start = ((t >> k) << (k + 1)) | (t & ((1 << k) - 1))
            workloads.append(Workload(start=start, stride=1 << k, count=count))
        phases.append(Phase(stage=k, workloads=tuple(workloads)))
    return ParallelPlan(log2_dim=n, log2_workers=p, phases=tuple(phases))


def check_disjoint(plan: ParallelPlan) -> None:
    """Prove no index is touched by two subtasks of the same phase.

    Also checks every index is in range. Raises ValidationError on any
    overlap; O(2**n) per phase, intended for verification at desk scale.
    """
    dim = 1 << plan.log2_dim
    for phase_idx, phase in enumerate(plan.phases):
        seen: set[int] = set()
        for task_idx, indices in enumerate(phase.index_sets()):
            if any(i < 0 or i >= dim for i in indices):
                raise ValidationError(
                    f"phase {phase_idx} subtask {task_idx} reaches out of range"
                )
            overlap = seen & indices
            if overlap:
                raise ValidationError(
                    f"phase {phase_idx} subtask {task_idx} overlaps earlier "
                    f"subtasks at {sorted(overlap)[:4]}"
                )
            seen |= indices


def total_butterflies(plan: ParallelPlan) -> int:
    """Butterflies across all phases; equals n * 2**(n-1) for a valid plan."""
    total = 0
    for phase in plan.phases:
        if phase.stage is None:
            for _, length in phase.chunks:
                sub_n = length.bit_length() - 1
                total += sub_n << max(sub_n - 1, 0)
        else:
            total += sum(w.count for w in phase.workloads)
    return total


def _run_chunk(buf: np.ndarray, start: int, length: int) -> None:
    fwht_array(buf[start : start + length])


def _run_workload(buf: np.ndarray, w: Workload) -> None:
    butterfly(
        buf[w.start : w.start + w.count],
        buf[w.start + w.stride : w.start + w.stride + w.count],
    )


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_plan(
    buf: np.ndarray, plan: ParallelPlan, pool: Executor, on_phase_complete=None
) -> None:
    """Transform ``buf`` in place by running the plan's phases on ``pool``.

    The buffer is shared mutably across the workers of a phase (safe by
    index disjointness); a full barrier separates phases. A worker failure
    propagates as a single exception after the phase drains, leaving the
    buffer contents unspecified. Checks neither the magnitude bound nor
    a domain: that is the caller's business.
    """
    if buf.shape != (1 << plan.log2_dim,):
        raise BadArguments(
            f"plan is for 2**{plan.log2_dim} elements, buffer has shape "
            f"{buf.shape}"
        )
    for phase_idx, phase in enumerate(plan.phases):
        if phase.stage is None:
            futures = [
                pool.submit(_run_chunk, buf, start, length)
                for start, length in phase.chunks
            ]
        else:
            futures = [pool.submit(_run_workload, buf, w) for w in phase.workloads]
        errors = []
        for fut in futures:  # barrier: wait for the whole phase
            exc = fut.exception()
            if exc is not None:
                errors.append(exc)
        if errors:
            raise errors[0]
        if on_phase_complete is not None:
            on_phase_complete(phase_idx)


def run_parallel(sig: Signal, plan: ParallelPlan, on_phase_complete=None) -> Signal:
    """Execute the plan on a worker pool; blocks until done.

    Output is bit-identical to the serial transform. A worker failure
    propagates as a single exception after the phase drains; the signal
    must then be discarded.
    """
    if plan.log2_dim != sig.log2_dim:
        raise BadArguments(
            f"plan is for n={plan.log2_dim}, signal has n={sig.log2_dim}"
        )
    check_magnitude_bound(sig.data, sig.log2_dim)
    with ThreadPoolExecutor(max_workers=plan.workers) as pool:
        run_plan(sig.data, plan, pool, on_phase_complete)
    sig.domain = Domain.WALSH if sig.domain == Domain.TIME else Domain.TIME
    return sig
