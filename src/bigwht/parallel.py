"""The stage plan every executor runs, and its in-memory thread executor.

``StagePlan(n, B, S)`` transforms each contiguous chunk of 2**B elements
on its own (stages 0 .. B-1), then performs each stage k = B .. n-1 as
butterflies between paired runs of S elements 2**k apart. Within a step
the index sets of distinct subtasks are pairwise disjoint, which is what
makes mutating one shared buffer (or file) safe; the plan checker below
proves it for any concrete plan. The thread schedule for 2**p workers is
the plan with B = n - p and S = 2**(B-1); the disk passes of ``external``
are the plan with the memory budget's B and the transfer size S.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Signal, Domain, butterfly, check_magnitude_bound, fwht_array
from .errors import BadArguments, InvalidWorkerCount, ValidationError


@dataclass(frozen=True)
class StagePlan:
    """Chunk WHTs of 2**block_log2 elements, then stages block_log2 .. n-1
    over paired runs of ``run_elems`` elements; valid when S = run_elems
    is a power of two no larger than 2**(B-1) (``check_disjoint``)."""

    log2_dim: int
    block_log2: int
    run_elems: int

    @property
    def stages(self) -> range:
        return range(self.block_log2, self.log2_dim)

    @property
    def q(self) -> int:
        """Steps: the chunk step plus one per stage."""
        return 1 + len(self.stages)

    def chunks(self) -> range:
        """Chunk starts; each chunk holds 2**block_log2 elements."""
        return range(0, 1 << self.log2_dim, 1 << self.block_log2)

    def runs(self, k: int) -> Iterator[int]:
        """Stage k's low-run starts in index order: run [s, s + S) pairs
        with [s + 2**k, s + 2**k + S)."""
        j = 1 << k
        for base in range(0, 1 << self.log2_dim, j << 1):
            yield from range(base, base + j, self.run_elems)


def plan_parallel(n: int, p: int) -> StagePlan:
    """Build the (p+1)-phase schedule for dimension 2**n on 2**p workers.

    Phase 0: worker w transforms the chunk starting at w * 2**(n-p).
    Stage-k phase: worker w runs the t-th run of 2**(n-1-p) consecutive
    butterflies, t = w * 2**(n-1-p), starting at
    ((t >> k) << (k+1)) | (t & (2**k - 1)).
    That is StagePlan(n, n - p, 2**(n-1-p)).
    """
    if p < 1 or p > n - 1:
        raise InvalidWorkerCount(
            f"need 1 <= p <= n-1 (got p={p}, n={n}); "
            f"p=0 means a serial transform"
        )
    return StagePlan(log2_dim=n, block_log2=n - p, run_elems=1 << (n - 1 - p))


def check_disjoint(plan: StagePlan) -> None:
    """Prove no index is touched by two subtasks of the same step.

    Also checks every index is in range. Raises ValidationError on any
    overlap; O(2**n) per step, intended for verification at desk scale.
    """
    dim, size, s = 1 << plan.log2_dim, 1 << plan.block_log2, plan.run_elems
    for step, k in enumerate((None, *plan.stages)):
        if k is None:
            tasks = [set(range(c, c + size)) for c in plan.chunks()]
        else:
            j = 1 << k
            tasks = [set(range(lo, lo + s)) | set(range(lo + j, lo + j + s))
                     for lo in plan.runs(k)]
        seen: set[int] = set()
        for task, indices in enumerate(tasks):
            if min(indices) < 0 or max(indices) >= dim:
                raise ValidationError(
                    f"step {step} subtask {task} reaches out of range"
                )
            overlap = seen & indices
            if overlap:
                raise ValidationError(
                    f"step {step} subtask {task} overlaps earlier "
                    f"subtasks at {sorted(overlap)[:4]}"
                )
            seen |= indices


def total_butterflies(plan: StagePlan) -> int:
    """Butterflies across all steps; equals n * 2**(n-1) for a valid plan."""
    b = plan.block_log2
    total = len(plan.chunks()) * ((b << b) // 2)
    for k in plan.stages:
        total += plan.run_elems * sum(1 for _ in plan.runs(k))
    return total


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_plan(
    buf: np.ndarray, plan: StagePlan, pool: Executor, on_phase_complete=None
) -> None:
    """Transform ``buf`` in place by running the plan's steps on ``pool``.

    Each chunk and each pair of runs is one task. The buffer is shared
    mutably across the tasks of a step (safe by index disjointness); a
    full barrier separates steps, and ``on_phase_complete(i)`` follows
    step i. A task failure propagates as a single exception after the
    step drains, leaving the buffer contents unspecified. Checks neither
    the magnitude bound nor a domain: that is the caller's business.
    """
    if buf.shape != (1 << plan.log2_dim,):
        raise BadArguments(
            f"plan is for 2**{plan.log2_dim} elements, buffer has shape "
            f"{buf.shape}"
        )
    size, s = 1 << plan.block_log2, plan.run_elems
    for step, k in enumerate((None, *plan.stages)):
        if k is None:
            futures = [pool.submit(fwht_array, buf[c : c + size])
                       for c in plan.chunks()]
        else:
            j = 1 << k
            futures = [
                pool.submit(butterfly, buf[lo : lo + s], buf[lo + j : lo + j + s])
                for lo in plan.runs(k)
            ]
        # Barrier: drain the whole step, then raise its first failure.
        for exc in [fut.exception() for fut in futures]:
            if exc is not None:
                raise exc
        if on_phase_complete is not None:
            on_phase_complete(step)


def run_parallel(sig: Signal, plan: StagePlan, on_phase_complete=None) -> Signal:
    """Execute the plan on a pool of one worker per chunk; blocks until done.

    Output is bit-identical to the serial transform. A worker failure
    propagates as a single exception after the phase drains; the signal
    must then be discarded.
    """
    check_magnitude_bound(sig.data, sig.log2_dim)
    with ThreadPoolExecutor(max_workers=len(plan.chunks())) as pool:
        run_plan(sig.data, plan, pool, on_phase_complete)
    sig.domain = Domain.WALSH if sig.domain == Domain.TIME else Domain.TIME
    return sig
