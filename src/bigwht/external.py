"""Out-of-core WHT over a DatasetFile with at most 2**B elements in RAM.

The schedule is q = n - B + 1 disk passes: pass 0 transforms each
contiguous superblock of 2**B elements in memory (covering butterfly
stages 0 .. B-1), then each remaining pass performs one stage
k = B .. n-1 directly against the file. Every pass reads and writes each
dataset byte exactly once.

One stage-pass executor serves both modes: it pairs runs of S elements
at matching offsets 2**k apart, butterflies them and writes them back.
Blocked mode turns the arithmetic into large sequential transfers; S is
independent of B and bounded by S <= 2**(B-1) so two blocks fit the
memory budget. Entry-wise mode is the same pass with S = 1, which is
the paper's skip-rule loop: read pt, read pt + 2**k, write both, one
element per operation.

After every completed pass the sidecar gains an updated pass-progress
marker, so an interrupted run can be restarted from the failed pass with
``resume=True``. A restart is exact when the interrupted pass had not yet
written (it failed on a read, or the process died between passes). A pass
killed after its writes began cannot be re-run -- butterflies are not
idempotent -- so the sidecar flags that state the moment a pass first
writes, and resume refuses it instead of corrupting the data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bits import is_power_of_two
from .core import butterfly, check_magnitude_bound, fwht_array
from .dataset import ELEMENT_BYTES, DatasetFile
from .errors import BadArguments, BadBlockSize


class ExternalMode(enum.Enum):
    ENTRYWISE = "entrywise"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class DiskPass:
    """One full read+write traversal; stage is None for the initial
    in-memory superblock pass."""

    index: int
    stage: int | None


@dataclass(frozen=True)
class PassPlan:
    log2_dim: int
    mem_log2: int
    mode: ExternalMode
    io_block_elems: int
    passes: tuple[DiskPass, ...]

    @property
    def q(self) -> int:
        return len(self.passes)


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
    passes = [DiskPass(index=0, stage=None)]
    for k in range(mem_log2, n):
        passes.append(DiskPass(index=len(passes), stage=k))
    return PassPlan(
        log2_dim=n,
        mem_log2=mem_log2,
        mode=mode,
        io_block_elems=block_elems,
        passes=tuple(passes),
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
    if not resume:
        raise BadArguments(
            f"{ds.path} has an interrupted transform "
            f"({marker.get('passes_done')}/{marker.get('total_passes')} "
            f"passes done); pass resume=True to continue"
        )
    if marker.get("writing"):
        raise BadArguments(
            f"{ds.path}: pass {marker.get('passes_done')} was interrupted "
            f"after its writes began, so the payload may be partially "
            f"transformed; re-running it would corrupt the data. Rebuild "
            f"the dataset from its source."
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
    if start == 0:
        ds.set_progress_marker(_marker_for(plan, 0))
    executed = []
    for disk_pass in plan.passes[start:]:
        sentinel = _FirstWriteSentinel(ds, plan, disk_pass.index)
        ds.fault_hook = sentinel
        try:
            if disk_pass.stage is None:
                _initial_pass(ds, plan)
            else:
                _blocked_stage_pass(ds, disk_pass.stage, plan.io_block_elems)
            ds.flush()
        finally:
            ds.fault_hook = sentinel.inner
        ds.set_progress_marker(_marker_for(plan, disk_pass.index + 1))
        executed.append(disk_pass.index)
    ds.set_progress_marker(None)
    ds.set_domain("walsh")
    return ExternalRunReport(plan=plan, passes_executed=executed, resumed_from=start)


def _initial_pass(ds: DatasetFile, plan: PassPlan) -> None:
    """Superblock WHTs covering stages 0 .. B-1 (all stages when n <= B)."""
    n = plan.log2_dim
    super_elems = min(1 << plan.mem_log2, 1 << n)
    for start in range(0, 1 << n, super_elems):
        block = ds.read_block(start, super_elems)
        # The original data streams by exactly once here, so this is where
        # the whole-transform magnitude bound gets enforced.
        check_magnitude_bound(block, n)
        fwht_array(block)
        ds.write_block(start, block)


def _blocked_stage_pass(ds: DatasetFile, stage: int, block_elems: int) -> None:
    """Stage k via paired S-element blocks from disjoint file regions.

    With S = 1 the loop order is the entry-wise skip rule: pt runs over
    the indices whose bit k is clear, each paired with pt + 2**k.
    """
    n = ds.log2_dim
    j = 1 << stage
    for base in range(0, 1 << n, j << 1):
        for offset in range(0, j, block_elems):
            lo = ds.read_block(base + offset, block_elems)
            hi = ds.read_block(base + offset + j, block_elems)
            butterfly(lo, hi)
            ds.write_block(base + offset, lo)
            ds.write_block(base + offset + j, hi)
