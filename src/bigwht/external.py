"""Out-of-core WHT over a DatasetFile with at most 2**B elements in RAM.

The passes run ``parallel.StagePlan`` (B, S), the plan type the thread
schedule runs, as q = n - B + 1 disk passes: pass 0 transforms each
contiguous superblock (chunk) of 2**B elements in memory (covering
butterfly stages 0 .. B-1), then each remaining pass performs one stage
k = B .. n-1 directly against the file. Every pass reads and writes each
dataset byte exactly once. With B >= n the plan is the single pass 0 over
one superblock, the whole dataset: that is the CLI's in-memory transform.

The memory budget B and the transfer size S, both in elements, are the
engine's whole configuration. One stage-pass executor walks the plan's
runs of S elements, reads each with its partner 2**k further on,
butterflies them and writes them back. S is independent of B and bounded
by S <= 2**(B-1) so two runs fit the memory budget. The paper's two
modes are values of S: blocked mode turns the arithmetic into large
sequential transfers, and entry-wise mode is S = 1, the paper's
skip-rule loop: read pt, read pt + 2**k, write both, one element per
operation.

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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bits import is_power_of_two
from .core import butterfly, check_magnitude_bound, fwht_array
from .dataset import ELEMENT_BYTES, DatasetFile
from .errors import BadArguments, BadBlockSize, OverflowBoundError
from .parallel import StagePlan, plan_parallel, run_plan, usable_cpus


def plan_external(n: int, mem_log2: int, io_block_elems: int) -> StagePlan:
    """Build the q-pass schedule; q = n - B + 1 (one pass when n <= B)."""
    if mem_log2 < 1:
        raise BadArguments(f"mem_log2 must be >= 1, got {mem_log2}")
    if n < 0:
        raise BadArguments(f"n must be >= 0, got {n}")
    if not is_power_of_two(io_block_elems):
        raise BadBlockSize(
            f"io_block_elems must be a power of two, got {io_block_elems}"
        )
    if io_block_elems > 1 << (mem_log2 - 1):
        raise BadBlockSize(
            f"the stage pass needs S <= 2**(B-1) = {1 << (mem_log2 - 1)} "
            f"elements, got {io_block_elems}"
        )
    return StagePlan(n, min(mem_log2, n), io_block_elems)


def pass_io_volume(plan: StagePlan) -> int:
    """Total traffic in bytes: each pass reads and writes the whole file."""
    return plan.q * 2 * (ELEMENT_BYTES << plan.log2_dim)


def default_io_block_elems(mem_log2: int) -> int:
    """128 MB blocks when the memory budget allows, else the largest legal."""
    return min(1 << 24, 1 << (mem_log2 - 1))


@dataclass
class ExternalRunReport:
    plan: StagePlan
    passes_executed: list[int]
    resumed_from: int


def run_external_entrywise(
    ds: DatasetFile, mem_log2: int, resume: bool = False
) -> ExternalRunReport:
    """Transform ``ds`` in place using paired single-element reads/writes."""
    return run_external_blocked(ds, mem_log2, io_block_elems=1, resume=resume)


def run_external_blocked(
    ds: DatasetFile,
    mem_log2: int,
    io_block_elems: int | None = None,
    resume: bool = False,
) -> ExternalRunReport:
    """Transform ``ds`` in place using paired S-element block I/O."""
    if io_block_elems is None:
        io_block_elems = default_io_block_elems(mem_log2)
    plan = plan_external(ds.log2_dim, mem_log2, io_block_elems)
    start = _start_pass_index(ds, plan, mem_log2, resume)
    executed = []
    for index, stage in enumerate((None, *plan.stages)[start:], start):
        sentinel = _FirstWriteSentinel(
            ds, _marker_for(plan, mem_log2, index, writing=True)
        )
        ds.fault_hook = sentinel
        try:
            if stage is None:
                _initial_pass(ds, plan)
            else:
                _blocked_stage_pass(ds, plan, stage)
            ds.flush()
        finally:
            ds.fault_hook = sentinel.inner
        ds.set_progress_marker(_marker_for(plan, mem_log2, index + 1))
        executed.append(index)
    # One sidecar write: a kill between clearing the marker and flipping
    # the domain would leave a transformed payload marked "time", and the
    # next run would transform it again.
    ds.set_progress_marker(None, domain="walsh")
    return ExternalRunReport(plan=plan, passes_executed=executed, resumed_from=start)


def _marker_for(
    plan: StagePlan, mem_log2: int, passes_done: int, writing: bool = False
) -> dict:
    # mem_log2 is the requested B, which exceeds plan.block_log2 when n < B.
    return {
        "mem_log2": mem_log2,
        "io_block_elems": plan.run_elems,
        "passes_done": passes_done,
        "total_passes": plan.q,
        "writing": writing,
    }


def _start_pass_index(
    ds: DatasetFile, plan: StagePlan, mem_log2: int, resume: bool
) -> int:
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
    expected = _marker_for(plan, mem_log2, marker.get("passes_done", -1))
    # Compare only the keys this code writes: markers from earlier releases
    # also carry a "mode" label, which S already determines.
    if {key: marker.get(key) for key in expected} != expected:
        raise BadArguments(
            f"resume parameters differ from the interrupted run: "
            f"marker {marker}, requested {expected}"
        )
    return marker["passes_done"]


class _FirstWriteSentinel:
    """Records ``marker`` in the sidecar before a pass's first payload write.

    A kill before any write of the current pass is cleanly resumable (the
    pass just reruns); one after writes began is not, and the marker's
    ``writing`` flag is how a later resume tells the two apart. Chains to
    any existing hook so fault-injecting tests still work, and a hook that
    raises on a read leaves the pass unflagged, as it should.
    """

    def __init__(self, ds: DatasetFile, marker: dict):
        self.ds = ds
        self.marker = marker
        self.inner = ds.fault_hook
        self.armed = True

    def __call__(self, op: str, start: int, count: int) -> None:
        if self.inner is not None:
            self.inner(op, start, count)
        if self.armed and op == "write":
            self.armed = False
            self.ds.set_progress_marker(self.marker)


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
