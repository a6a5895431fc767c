"""The stage plan every executor runs, and its in-memory thread executor.

``StagePlan(n, B, S)`` transforms each contiguous chunk of 2**B elements
on its own (stages 0 .. B-1), then performs each stage k = B .. n-1 as
butterflies between paired runs of S elements 2**k apart. ``steps()`` is
the one walk over that plan: each barrier-separated step as (stages, run
length, tasks), a task being the tuple of run starts it transforms.
``run_plan`` checks each chunk's int64 bound on a thread pool, then
submits each task to that pool; the disk engine of ``external`` runs
each step as one file pass, and the plan checker below walks the same
tasks, proving that within a step they touch pairwise disjoint indices
-- which is what makes mutating one shared buffer (or file) safe. The
thread schedule for 2**p workers is the plan with B = n - p and
S = 2**(B-1); the disk passes are the plan with the memory budget's B
and the transfer size S.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import Executor, Future, ThreadPoolExecutor
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

    def steps(self) -> Iterator[tuple[range, int, Iterator[tuple[int, ...]]]]:
        """Each barrier-separated step as (stages, run length, tasks).

        The chunk step covers stages 0 .. B-1 with one task ``(c,)`` per
        chunk of 2**B elements; stage k's step has one task
        ``(lo, lo + 2**k)`` per ``runs(k)`` start, over runs of S
        elements. Tasks are lazy, since S = 1 makes 2**(n-1) per step.
        """
        b = self.block_log2
        yield range(b), 1 << b, ((c,) for c in self.chunks())
        for k in self.stages:
            yield range(k, k + 1), self.run_elems, self._pairs(k)

    def _pairs(self, k: int) -> Iterator[tuple[int, int]]:
        # A generator function, so each step's tasks keep their own k even
        # when the steps are listed before their tasks are consumed.
        j = 1 << k
        for lo in self.runs(k):
            yield lo, lo + j


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
    """Prove no index is touched by two runs of the same step.

    Walks ``plan.steps()``, the tasks the executors run, and also checks
    every run lies in range. Raises ValidationError on any overlap;
    O(2**n) per step, intended for verification at desk scale.
    """
    dim = 1 << plan.log2_dim
    for step, (_, length, tasks) in enumerate(plan.steps()):
        seen = np.zeros(dim, dtype=bool)
        for task, starts in enumerate(tasks):
            for start in starts:
                if start < 0 or start + length > dim:
                    raise ValidationError(
                        f"step {step} subtask {task} reaches out of range"
                    )
                run = seen[start : start + length]
                if run.any():
                    raise ValidationError(
                        f"step {step} subtask {task} overlaps earlier runs "
                        f"at {(start + np.flatnonzero(run)[:4]).tolist()}"
                    )
                run[:] = True


def total_butterflies(plan: StagePlan) -> int:
    """Butterflies across all steps; equals n * 2**(n-1) for a valid plan.

    A step of r stages over ``runs`` runs of L elements does r * runs * L / 2.
    """
    return sum(len(stages) * sum(map(len, tasks)) * length
               for stages, length, tasks in plan.steps()) // 2


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_plan(
    buf: np.ndarray, plan: StagePlan, pool: Executor, on_phase_complete=None,
    bound_log2: int | None = None,
) -> None:
    """Transform ``buf`` in place by running the plan's steps on ``pool``.

    First every chunk's int64 magnitude bound is checked on the pool, for
    a transform of 2**bound_log2 elements (default: the plan's own size),
    and all checks drain before the chunk step, so a refusal raises
    ``OverflowBoundError`` with the buffer untouched. Then each task of
    ``plan.steps()`` is one pool task: ``fwht_array`` on a chunk,
    ``butterfly`` on a pair of runs. The buffer is shared mutably across
    the tasks of a step (safe by index disjointness); a full barrier
    separates steps, and ``on_phase_complete(i)`` follows step i. A task
    failure propagates as a single exception after the step drains,
    leaving the buffer contents unspecified. Checks no domain: that is
    the caller's business.
    """
    if buf.shape != (1 << plan.log2_dim,):
        raise BadArguments(
            f"plan is for 2**{plan.log2_dim} elements, buffer has shape "
            f"{buf.shape}"
        )
    if bound_log2 is None:
        bound_log2 = plan.log2_dim
    chunk = 1 << plan.block_log2
    _drain([pool.submit(check_magnitude_bound, buf[c : c + chunk], bound_log2)
            for c in plan.chunks()])
    for step, (_, length, tasks) in enumerate(plan.steps()):
        kernel = butterfly if step else fwht_array
        _drain([pool.submit(kernel, *(buf[r : r + length] for r in task))
                for task in tasks])
        if on_phase_complete is not None:
            on_phase_complete(step)


def _drain(futures: list[Future]) -> None:
    """Barrier: wait for every future, then raise the first failure."""
    for exc in [fut.exception() for fut in futures]:
        if exc is not None:
            raise exc


def run_parallel(sig: Signal, plan: StagePlan, on_phase_complete=None) -> Signal:
    """Execute the plan on a pool of one worker per chunk; blocks until done.

    Output is bit-identical to the serial transform. An int64 signal that
    could overflow is refused before any element changes (``run_plan``
    checks the bound). Any other worker failure propagates as a single
    exception after the phase drains; the signal must then be discarded.
    """
    with ThreadPoolExecutor(max_workers=len(plan.chunks())) as pool:
        run_plan(sig.data, plan, pool, on_phase_complete)
    sig.domain = Domain.WALSH if sig.domain == Domain.TIME else Domain.TIME
    return sig
