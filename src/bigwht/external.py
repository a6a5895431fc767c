"""Out-of-core WHT over a DatasetFile with at most 2**B elements in RAM.

The passes run ``parallel.StagePlan`` (B, S), the plan type the thread
schedule runs, as q = n - B + 1 disk passes: pass 0 transforms each
contiguous superblock (chunk) of 2**B elements in memory (covering
butterfly stages 0 .. B-1), then each remaining pass performs one stage
k = B .. n-1 directly against the file. Every pass reads and writes each
dataset byte exactly once. With B >= n the plan is the single pass 0 over
one superblock, the whole dataset: that is the CLI's in-memory transform.

One stage-pass executor serves both modes: it walks the plan's runs of
S elements, reads each with its partner 2**k further on, butterflies
them and writes them back. Blocked mode turns the arithmetic into large
sequential transfers; S is independent of B and bounded by
S <= 2**(B-1) so two blocks fit the memory budget. Entry-wise mode is
the same pass with S = 1, which is the paper's skip-rule loop: read pt,
read pt + 2**k, write both, one element per operation.

Pass 0 runs each superblock on the thread schedule of ``parallel``, with
2**p workers for the process's usable CPUs (p = floor(log2 CPUs), capped
at B - 1; p = 0 is the serial kernel). Reads, the bound check and writes
stay on the calling thread, in order. Memory stays within the 2**B
budget: pass 0 holds one 2**B superblock buffer, which every superblock
read (and the overflow undo) reuses, plus one 2**16-element tile
(512 KiB) of kernel scratch per worker; a stage pass holds two S-element
run buffers, which every pair of runs reuses, plus half a tile of
butterfly scratch. Meanwhile the dataset handle writes back behind the
passes on a background sync thread, so the flush that ends each pass
waits only for the last few megabytes.

No marker is written before the run's first payload write, so a run that
is refused or fails before then (say, on the first superblock's read or
bound check) leaves the sidecar as it was and can simply be rerun; so
does an int64 overflow found in a later superblock, which undoes the
superblocks already written. After every completed pass the sidecar
gains an updated pass-progress marker, so an interrupted run can be
restarted from the failed pass with ``resume=True``. A restart is exact
when the interrupted pass had not yet written (it failed on a read, or
the process died between passes). A pass killed after its writes began
cannot be re-run -- butterflies are not idempotent -- so the sidecar
flags that state the moment a pass first writes, and resume refuses it
instead of corrupting the data.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bits import is_power_of_two
from .core import butterfly, check_magnitude_bound, fwht_array
from .dataset import ELEMENT_BYTES, DatasetFile
from .errors import BadArguments, BadBlockSize, OverflowBoundError
from .parallel import StagePlan, plan_parallel, run_plan, usable_cpus


class ExternalMode(enum.Enum):
    ENTRYWISE = "entrywise"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class PassPlan:
    """The stage plan the passes run, plus what the pass marker records
    beyond it."""

    mode: ExternalMode
    mem_log2: int
    schedule: StagePlan

    @property
    def q(self) -> int:
        return self.schedule.q

    @property
    def log2_dim(self) -> int:
        return self.schedule.log2_dim

    @property
    def io_block_elems(self) -> int:
        return self.schedule.run_elems


def plan_external(
    n: int, mem_log2: int, mode: ExternalMode, io_block_bytes: int
) -> PassPlan:
    """Build the q-pass schedule; q = n - B + 1 (one pass when n <= B)."""
    if mem_log2 < 1:
        raise BadArguments(f"mem_log2 must be >= 1, got {mem_log2}")
    if n < 0:
        raise BadArguments(f"n must be >= 0, got {n}")
    if (
        io_block_bytes < ELEMENT_BYTES
        or io_block_bytes % ELEMENT_BYTES
        or not is_power_of_two(io_block_bytes)
    ):
        raise BadBlockSize(
            f"io_block_bytes must be a power-of-two multiple of "
            f"{ELEMENT_BYTES}, got {io_block_bytes}"
        )
    block_elems = io_block_bytes // ELEMENT_BYTES
    if mode == ExternalMode.ENTRYWISE and block_elems != 1:
        raise BadBlockSize(
            f"entrywise mode moves one element per transfer, got "
            f"{block_elems} elements"
        )
    if block_elems > 1 << (mem_log2 - 1):
        raise BadBlockSize(
            f"blocked mode needs S <= 2**(B-1) = {1 << (mem_log2 - 1)} "
            f"elements, got {block_elems}"
        )
    return PassPlan(
        mode=mode,
        mem_log2=mem_log2,
        schedule=StagePlan(n, min(mem_log2, n), block_elems),
    )


def pass_io_volume(plan: PassPlan) -> int:
    """Total traffic in bytes: each pass reads and writes the whole file."""
    return plan.q * 2 * (ELEMENT_BYTES << plan.log2_dim)


def default_io_block_elems(mem_log2: int) -> int:
    """128 MB blocks when the memory budget allows, else the largest legal."""
    return min(1 << 24, 1 << (mem_log2 - 1))


@dataclass
class ExternalRunReport:
    plan: PassPlan
    passes_executed: list[int]
    resumed_from: int


def run_external_entrywise(
    ds: DatasetFile, mem_log2: int, resume: bool = False
) -> ExternalRunReport:
    """Transform ``ds`` in place using paired single-element reads/writes."""
    plan = plan_external(
        ds.log2_dim, mem_log2, ExternalMode.ENTRYWISE, ELEMENT_BYTES
    )
    return _execute(ds, plan, resume)


def run_external_blocked(
    ds: DatasetFile,
    mem_log2: int,
    io_block_elems: int | None = None,
    resume: bool = False,
) -> ExternalRunReport:
    """Transform ``ds`` in place using paired S-element block I/O."""
    if io_block_elems is None:
        io_block_elems = default_io_block_elems(mem_log2)
    plan = plan_external(
        ds.log2_dim,
        mem_log2,
        ExternalMode.BLOCKED,
        io_block_elems * ELEMENT_BYTES,
    )
    return _execute(ds, plan, resume)


def _marker_for(plan: PassPlan, passes_done: int, writing: bool = False) -> dict:
    return {
        "mode": plan.mode.value,
        "mem_log2": plan.mem_log2,
        "io_block_elems": plan.io_block_elems,
        "passes_done": passes_done,
        "total_passes": plan.q,
        "writing": writing,
    }


def _start_pass_index(ds: DatasetFile, plan: PassPlan, resume: bool) -> int:
    marker = ds.progress_marker
    if marker is None:
        if ds.domain != "time":
            raise BadArguments(
                f"{ds.path} is in the {ds.domain} domain; expected time"
            )
        return 0
    if marker.get("writing"):
        raise BadArguments(
            f"{ds.path}: pass {marker.get('passes_done')} was interrupted "
            f"after its writes began, so the payload may be partially "
            f"transformed; re-running it would corrupt the data. Rebuild "
            f"the dataset from its source."
        )
    if not resume:
        raise BadArguments(
            f"{ds.path} has an interrupted transform "
            f"({marker.get('passes_done')}/{marker.get('total_passes')} "
            f"passes done); pass resume=True to continue"
        )
    expected = _marker_for(plan, marker.get("passes_done", -1))
    if marker != expected:
        raise BadArguments(
            f"resume parameters differ from the interrupted run: "
            f"marker {marker}, requested {expected}"
        )
    return marker["passes_done"]


class _FirstWriteSentinel:
    """Flags the sidecar before a pass's first payload write.

    A kill before any write of the current pass is cleanly resumable (the
    pass just reruns); one after writes began is not, and the flag is how
    a later resume tells the two apart. Chains to any existing hook so
    fault-injecting tests still work, and a hook that raises on a read
    leaves the pass unflagged, as it should.
    """

    def __init__(self, ds: DatasetFile, plan: PassPlan, pass_index: int):
        self.ds = ds
        self.plan = plan
        self.pass_index = pass_index
        self.inner = ds.fault_hook
        self.armed = True

    def __call__(self, op: str, start: int, count: int) -> None:
        if self.inner is not None:
            self.inner(op, start, count)
        if self.armed and op == "write":
            self.armed = False
            self.ds.set_progress_marker(
                _marker_for(self.plan, self.pass_index, writing=True)
            )


def _execute(ds: DatasetFile, plan: PassPlan, resume: bool) -> ExternalRunReport:
    start = _start_pass_index(ds, plan, resume)
    executed = []
    for index, stage in enumerate((None, *plan.schedule.stages)[start:], start):
        sentinel = _FirstWriteSentinel(ds, plan, index)
        ds.fault_hook = sentinel
        try:
            if stage is None:
                _initial_pass(ds, plan.schedule)
            else:
                _blocked_stage_pass(ds, plan.schedule, stage)
            ds.flush()
        finally:
            ds.fault_hook = sentinel.inner
        ds.set_progress_marker(_marker_for(plan, index + 1))
        executed.append(index)
    # One sidecar write: a kill between clearing the marker and flipping
    # the domain would leave a transformed payload marked "time", and the
    # next run would transform it again.
    ds.set_progress_marker(None, domain="walsh")
    return ExternalRunReport(plan=plan, passes_executed=executed, resumed_from=start)


def _initial_pass(ds: DatasetFile, plan: StagePlan) -> None:
    """Superblock WHTs covering stages 0 .. B-1 (all stages when n <= B)."""
    n, b = plan.log2_dim, plan.block_log2
    p = max(0, min(usable_cpus().bit_length() - 1, b - 1))
    block_plan = plan_parallel(b, p) if p else None
    # One superblock buffer for the whole pass: a fresh array per read
    # would hold two superblocks while the old one is still bound.
    block = np.empty(1 << b, dtype=ds.dtype)
    # Threads start on first submit, so the serial case starts none.
    with ThreadPoolExecutor(max_workers=1 << p) as pool:
        for done, start in enumerate(plan.chunks()):
            ds.read_block(start, 1 << b, out=block)
            # The original data streams by exactly once here, so this is
            # where the whole-transform magnitude bound gets enforced.
            try:
                check_magnitude_bound(block, n)
            except OverflowBoundError:
                if done:  # superblocks 0 .. done-1 are written: undo them
                    _undo_superblocks(ds, plan, done, block)
                raise
            if block_plan is None:
                fwht_array(block)
            else:
                run_plan(block, block_plan, pool)
            ds.write_block(start, block)


def _undo_superblocks(
    ds: DatasetFile, plan: StagePlan, count: int, block: np.ndarray
) -> None:
    """Restore the first ``count`` superblocks through the superblock
    buffer ``block``, and clear the marker.

    Exact: H * H = 2**B * I, and these int64 values passed the bound,
    so each transformed value is a multiple of 2**B and the arithmetic
    shift by B divides it exactly. A kill in here leaves ``writing:
    true``, which every later run refuses.
    """
    for start in plan.chunks()[:count]:
        ds.read_block(start, block.size, out=block)
        fwht_array(block)
        block >>= plan.block_log2
        ds.write_block(start, block)
    ds.flush()
    ds.set_progress_marker(None)


def _blocked_stage_pass(ds: DatasetFile, plan: StagePlan, stage: int) -> None:
    """Stage k via paired S-element blocks from disjoint file regions,
    read into two run buffers that the whole pass reuses.

    With S = 1 the loop order is the entry-wise skip rule: pt runs over
    the indices whose bit k is clear, each paired with pt + 2**k.
    """
    j, s = 1 << stage, plan.run_elems
    lo = np.empty(s, dtype=ds.dtype)
    hi = np.empty(s, dtype=ds.dtype)
    for pt in plan.runs(stage):
        ds.read_block(pt, s, out=lo)
        ds.read_block(pt + j, s, out=hi)
        butterfly(lo, hi)
        ds.write_block(pt, lo)
        ds.write_block(pt + j, hi)
