"""In-memory span tracing around the public names each bigwht layer calls.

A span is one call at a layer boundary: name, start, end, parent span,
job id and thread. Spans stay in a list until the run ends. ``install``
swaps traced wrappers in for the library's names (class methods of
``DatasetFile`` and module globals such as ``external.fwht_array``) and
returns a handle whose ``remove`` puts the originals back, so an
untraced run executes the library exactly as shipped.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    thread: int
    work: float = 0.0  # layer-specific count: butterflies, bytes

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullContext()


class NullTracer:
    """Tracing off: the harness's own span() calls cost one method call."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def job(self, job: int):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._job = -1
        # Worker threads start with an empty stack; their spans hang off
        # whatever span the job's own thread has open (e.g. run_parallel).
        self._job_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._job_stack[-1] if self._job_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, parent, name, start, end, work=0.0) -> None:
        stack.pop()
        self.spans.append(Span(sid, name, start, end, parent, self._job,
                               threading.get_ident(), work))

    def span(self, name: str):
        return _SpanContext(self, name)

    def job(self, job: int):
        return _JobContext(self, job)

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording a span per call; ``work(args, result)``
        gives the span's work count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(stack, sid, parent, name, start, perf_counter())
                raise
            end = perf_counter()
            amount = work(args, result) if work is not None else 0.0
            tracer._close(stack, sid, parent, name, start, end, amount)
            return result

        return traced


class _SpanContext:
    __slots__ = ("tracer", "name", "frame", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        stack, sid, parent = self.frame
        self.tracer._close(stack, sid, parent, self.name, self.start, end)
        return False


class _JobContext(_SpanContext):
    """The root span of one job; sets the job id every span inherits."""

    __slots__ = ("job_id",)

    def __init__(self, tracer: Tracer, job: int):
        super().__init__(tracer, "job")
        self.job_id = job

    def __enter__(self):
        self.tracer._job = self.job_id
        super().__enter__()
        self.tracer._job_stack = self.tracer._stack()
        return self

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.tracer._job_stack = []
        return False


def _returned_nbytes(args, result) -> float:
    return float(result.nbytes)


def _written_nbytes(args, result) -> float:
    return float(args[2].nbytes)


def _butterflies(args, result) -> float:
    return float(result)


class Installed:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap the names the layers call: DatasetFile's I/O methods, the
    kernel as bound in core, parallel and external, the int64 bound
    check, and subspace's index map."""
    from bigwht import core, dataset, external, parallel, subspace

    handle = Installed()
    cls = dataset.DatasetFile
    handle.patch(cls, "read_block",
                 tracer.wrap("dataset.read_block", cls.read_block, _returned_nbytes))
    handle.patch(cls, "write_block",
                 tracer.wrap("dataset.write_block", cls.write_block, _written_nbytes))
    for method in ("flush", "set_progress_marker", "set_domain"):
        handle.patch(cls, method,
                     tracer.wrap(f"dataset.{method}", getattr(cls, method)))
    for module in (core, parallel, external):
        handle.patch(module, "fwht_array",
                     tracer.wrap("core.fwht_array", module.fwht_array, _butterflies))
    for module in (core, parallel):
        handle.patch(module, "check_magnitude_bound",
                     tracer.wrap("core.check_magnitude_bound",
                                 module.check_magnitude_bound))
    handle.patch(subspace, "apply_map_array",
                 tracer.wrap("subspace.apply_map_array", subspace.apply_map_array))
    return handle


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it that child spans cover.

    Children on other threads can overlap one another, so covered time is
    the length of the union of the child intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo = max(c.start, cursor)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a missing parent, a child outside its
    parent's interval or job, overlapping siblings on one thread."""
    by_id = {s.sid: s for s in spans}
    problems = []
    siblings: dict[tuple[int | None, int], list[Span]] = {}
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.sid} {s.name} ends before it starts")
        if s.parent is None:
            if s.name != "job":
                problems.append(f"span {s.sid} {s.name} has no parent")
        else:
            p = by_id.get(s.parent)
            if p is None:
                problems.append(f"span {s.sid} {s.name}: parent {s.parent} missing")
            elif s.start < p.start or s.end > p.end or s.job != p.job:
                problems.append(f"span {s.sid} {s.name} escapes parent {p.sid} {p.name}")
        siblings.setdefault((s.parent, s.thread), []).append(s)
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                problems.append(f"sibling spans {a.sid} {a.name} and {b.sid} {b.name} overlap")
    return problems
