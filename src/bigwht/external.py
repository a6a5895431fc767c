"""Out-of-core WHT over a DatasetFile with at most 2**B elements in RAM.

The passes run ``parallel.StagePlan`` (B, S), the plan type the thread
schedule runs, as q = n - B + 1 disk passes, one per step of
``plan.steps()``: pass 0 transforms each contiguous superblock (chunk)
of 2**B elements in memory (covering butterfly stages 0 .. B-1), then
each remaining pass performs one stage k = B .. n-1 directly against the
file. Every pass reads and writes each dataset byte exactly once. With
B >= n the plan is the single pass 0 over one superblock, the whole
dataset: that is the CLI's in-memory transform.

The memory budget B and the transfer size S, both in elements, are the
engine's whole configuration. One executor, ``_file_pass``, runs every
pass: for each task of the step it reads the task's runs into the rows
of one reused buffer, computes on them in place and writes them back.
Pass 0's tasks are the superblocks, in a (1, 2**B) buffer; a stage
pass's tasks are pairs of S-element runs 2**k apart, in a (2, S) buffer,
butterflied. S is independent of B and bounded by S <= 2**(B-1) so two
runs fit the memory budget. The paper's two modes are values of S:
blocked mode turns the arithmetic into large sequential transfers, and
entry-wise mode is S = 1, the paper's skip-rule loop: read pt, read
pt + 2**k, write both, one element per operation.

Pass 0 computes each superblock with ``parallel.run_plan`` on the thread
schedule, 2**p workers for the process's usable CPUs (p = floor(log2
CPUs), capped at B - 1; p = 0 is one worker running the whole superblock
as one chunk). ``run_plan`` also checks the int64 bound, chunk by chunk
on the pass's pool; reads and writes stay on the calling thread, in
order. Memory stays within the 2**B budget: the pass buffer, plus one
2**16-element tile (512 KiB) of kernel scratch per worker in pass 0 or
half a tile of butterfly scratch in a stage pass. Meanwhile the dataset
handle writes back behind the passes on a background sync thread, so
the flush that ends each pass waits only for the last few megabytes.

No marker is written before the run's first payload write, so a run that
is refused or fails before then (say, on the first superblock's read or
bound check) leaves the sidecar as it was and can simply be rerun; so
does an int64 overflow found in a later superblock, which undoes the
superblocks already written through the same executor. After every
completed pass the sidecar gains an updated pass-progress marker, so an
interrupted run can be restarted from the failed pass with
``resume=True``. A restart is exact when the interrupted pass had not
yet written (it failed on a read, or the process died between passes).
A pass killed after its writes began cannot be re-run -- butterflies are
not idempotent -- so the executor flags that state in the sidecar just
before the pass's first write. ``DatasetFile.domain`` refuses a marked
dataset, naming the rebuild once writes began and ``resume=True``
otherwise, so this engine and every reader refuse it alike.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bits import is_power_of_two
from .core import TILE_ELEMS, butterfly, fwht_array
from .dataset import ELEMENT_BYTES, DatasetFile
from .errors import BadArguments, BadBlockSize, OverflowBoundError
from .parallel import StagePlan, run_plan, usable_cpus


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
    if io_block_elems is None and mem_log2 >= 1:  # plan_external refuses B < 1
        io_block_elems = default_io_block_elems(mem_log2)
    plan = plan_external(ds.log2_dim, mem_log2, io_block_elems)
    start = _start_pass_index(ds, plan, mem_log2, resume)
    executed = []
    for index, step in enumerate(islice(plan.steps(), start, None), start):
        _run_pass(ds, plan, step, _marker_for(plan, mem_log2, index, writing=True))
        ds.flush()
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
    if marker is None or marker.get("writing") or not resume:
        # With a marker, ds.domain raises: a pass that began writing can
        # only be rebuilt, and one that did not needs resume=True.
        if ds.domain != "time":
            raise BadArguments(
                f"{ds.path} is in the {ds.domain} domain; expected time"
            )
        return 0
    expected = _marker_for(plan, mem_log2, marker.get("passes_done", -1))
    # Compare only the keys this code writes: markers from earlier releases
    # also carry a "mode" label, which S already determines.
    if {key: marker.get(key) for key in expected} != expected:
        raise BadArguments(
            f"resume parameters differ from the interrupted run: "
            f"marker {marker}, requested {expected}"
        )
    return marker["passes_done"]


def _file_pass(ds: DatasetFile, tasks, buf: np.ndarray, compute,
               marker: dict) -> None:
    """The one disk-pass executor: for each task, a tuple of run starts,
    read the runs into the rows of ``buf``, ``compute(buf)`` in place and
    write the rows back, in that order.

    ``buf`` is one (runs, length) array that every task reuses. The
    pass's ``writing`` marker goes to the sidecar immediately before its
    first write, so a pass that fails on a read or in ``compute`` before
    then stays cleanly resumable.
    """
    rows = list(buf)
    for task, starts in enumerate(tasks):
        for row, start in zip(rows, starts):
            ds.read_block(start, row.size, out=row)
        compute(buf)
        if task == 0:
            ds.set_progress_marker(marker)
        for row, start in zip(rows, starts):
            ds.write_block(start, row)


def _run_pass(ds: DatasetFile, plan: StagePlan, step, marker: dict) -> None:
    """Run one step of ``plan.steps()`` as one ``_file_pass`` over ``ds``.

    A stage step butterflies each pair of S-element runs through one
    half-tile scratch for the whole pass. The chunk step runs each
    superblock through ``run_plan`` on a pool of 2**p workers (one when
    p = 0), which checks the bound for the whole 2**n transform before
    it changes the superblock; an int64 overflow found in a later
    superblock undoes the superblocks already written, through the same
    buffer. The undo is exact: H * H = 2**B * I, and these values passed
    the bound, so each transformed value is a multiple of 2**B and the
    arithmetic shift by B divides it exactly. A kill in the undo leaves
    ``writing: true``, which every later run refuses.
    """
    stages, length, tasks = step
    if stages.start:  # a stage step; the chunk step starts at stage 0
        tmp = np.empty(min(length, TILE_ELEMS // 2), dtype=ds.dtype)
        _file_pass(ds, tasks, np.empty((2, length), dtype=ds.dtype),
                   lambda rows: butterfly(*rows, tmp), marker)
        return
    n, b = plan.log2_dim, plan.block_log2
    p = max(0, min(usable_cpus().bit_length() - 1, b - 1))
    # B = 0 (a one-element dataset) has no stage step, so S is moot there.
    block_plan = StagePlan(b, b - p, 1 << max(0, b - 1 - p))
    done = 0

    def transform(rows: np.ndarray) -> None:
        nonlocal done
        # The original data streams by exactly once here, so this is
        # where the whole-transform magnitude bound gets enforced.
        run_plan(rows[0], block_plan, pool, bound_log2=n)
        done += 1

    def undo(rows: np.ndarray) -> None:
        fwht_array(rows[0])
        rows >>= b

    # One superblock buffer for the pass and its undo: a fresh array per
    # read would hold two superblocks while the old one is still bound.
    buf = np.empty((1, length), dtype=ds.dtype)
    with ThreadPoolExecutor(max_workers=1 << p) as pool:
        try:
            _file_pass(ds, tasks, buf, transform, marker)
        except OverflowBoundError:
            if done:  # superblocks 0 .. done-1 are written: undo them
                _file_pass(ds, ((c,) for c in plan.chunks()[:done]), buf,
                           undo, marker)
                ds.flush()
                ds.set_progress_marker(None)
            raise
