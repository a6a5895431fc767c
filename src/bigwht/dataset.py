"""On-disk dataset format and block I/O.

A dataset is a raw little-endian array of 2**n 8-byte elements (so the
payload stays mmap-friendly and readable by any tool) plus a JSON sidecar
``<path>.meta.json`` carrying log2_dim, element_kind, domain and
format_version. The sidecar also hosts the pass-progress marker used to
restart interrupted external transforms; while it is present,
``DatasetFile.domain`` raises, so every reader refuses the payload.

Every block moves through one buffered path: ``_transfer`` runs preadv
or pwritev on the payload's file descriptor until the whole block has
moved. ``iobench`` reuses that loop for its own copies, including its
O_DIRECT measurement, which opens its scratch files itself.

Writes are synced behind: once SYNC_BEHIND_BYTES have been written since
the last sync, a background thread writes them back with fdatasync while
the caller goes on, so ``flush`` waits only for the tail.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bits import is_power_of_two
from .core import Domain, check_signal_array
from .errors import (
    BadArguments,
    BadMetadata,
    DiskFull,
    IoFailure,
    OutOfBounds,
    PathExists,
    SizeMismatch,
)

ELEMENT_BYTES = 8
FORMAT_VERSION = 1
# Unsynced bytes after which write_block starts a background fdatasync.
SYNC_BEHIND_BYTES = 8 << 20
# Elements per block of a streaming scan: subspace.fold_dataset and
# noisy.extract_above_dataset read it at call time. A power of two;
# subspace.fold slices by it too, so fold and fold_dataset agree bit for
# bit on float64.
STREAM_BLOCK_ELEMS = 1 << 16

_DTYPES = {"int64": np.dtype("<i8"), "float64": np.dtype("<f8")}


def sidecar_path(path: str) -> str:
    return path + ".meta.json"


def _write_sidecar(path: str, meta: dict) -> None:
    tmp = sidecar_path(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, sidecar_path(path))
    # The rename is durable only once the directory entry is: without this
    # a crash can bring back the previous pass-progress marker.
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_sidecar(path: str) -> dict:
    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as f:
            meta = json.load(f)
    except FileNotFoundError as exc:
        raise BadMetadata(f"missing sidecar {sidecar_path(path)}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise BadMetadata(f"unreadable sidecar {sidecar_path(path)}: {exc}") from exc
    if not isinstance(meta, dict):
        raise BadMetadata("sidecar is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise BadMetadata(f"unsupported format_version {meta.get('format_version')}")
    n = meta.get("log2_dim")
    if not isinstance(n, int) or n < 0:
        raise BadMetadata(f"bad log2_dim {n!r}")
    if meta.get("element_kind") not in _DTYPES:
        raise BadMetadata(f"bad element_kind {meta.get('element_kind')!r}")
    try:
        meta["domain"] = Domain(meta.get("domain"))
    except BadArguments as exc:
        raise BadMetadata(str(exc)) from exc
    return meta


def _transfer(fd: int, call, view: memoryview, offset: int, what: str) -> None:
    """Run ``call`` (os.preadv or os.pwritev) until all of ``view`` has moved
    at byte ``offset``, resuming after partial transfers."""
    pos = 0
    while pos < len(view):
        try:
            done = call(fd, [view[pos:]], offset + pos)
        except OSError as exc:
            raise IoFailure(f"{what} failed at byte {offset + pos}: {exc}") from exc
        if done <= 0:
            raise IoFailure(
                f"short {what} at byte {offset + pos}: {pos}/{len(view)} bytes"
            )
        pos += done


class IoStats:
    """Running counters over a dataset handle, used by the pass-accounting
    and fault-injection tests.

    Updates take a lock: ``+=`` on an attribute is a read and a write, so
    two threads reading one handle could otherwise lose counts.
    """

    __slots__ = ("reads", "writes", "elements_read", "elements_written", "_lock")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.elements_read = 0
        self.elements_written = 0
        self._lock = threading.Lock()

    def count_read(self, elements: int) -> None:
        with self._lock:
            self.reads += 1
            self.elements_read += elements

    def count_write(self, elements: int) -> None:
        with self._lock:
            self.writes += 1
            self.elements_written += elements

    def snapshot(self) -> tuple[int, int, int, int]:
        with self._lock:
            return (self.reads, self.writes, self.elements_read,
                    self.elements_written)


class DatasetFile:
    """Handle to an on-disk signal. Every block moves through
    ``_transfer`` between the caller's array and the page cache, with no
    copy in between. Opening one is the payload-size check: a payload
    that is missing or differs from the sidecar's size is SizeMismatch.

    ``read_block`` may run on several threads at once (the streaming fold
    reads one handle from a worker per CPU); every other method belongs
    to one thread at a time. ``fault_hook``, when set, is called as
    hook(op, start, count) before every I/O operation and may raise to
    simulate failures. It runs on the thread that issues the I/O; the
    background fdatasync runs on the handle's one sync worker, which
    ``close`` shuts down.
    """

    def __init__(self, path: str, meta: dict):
        self.path = path
        self._meta = meta
        self.stats = IoStats()
        self.fault_hook = None
        self._unsynced = 0
        self._syncer: ThreadPoolExecutor | None = None  # made on first use
        self._sync = None  # Future of the running background fdatasync
        self._expected_bytes = ELEMENT_BYTES << self.log2_dim
        try:
            actual = os.path.getsize(path)
        except OSError as exc:
            raise SizeMismatch(f"payload {path} is missing: {exc}") from exc
        if actual != self._expected_bytes:
            raise SizeMismatch(
                f"{path}: payload is {actual} bytes, sidecar implies "
                f"{self._expected_bytes}"
            )
        self._f = open(path, "r+b", buffering=0)
        self._fd = self._f.fileno()

    # -- metadata ---------------------------------------------------------

    @property
    def log2_dim(self) -> int:
        return self._meta["log2_dim"]

    @property
    def dim(self) -> int:
        return 1 << self.log2_dim

    @property
    def element_kind(self) -> str:
        return self._meta["element_kind"]

    @property
    def domain(self) -> Domain:
        """The payload's domain, which every reader checks before reading.
        Raises ``BadArguments`` while a pass-progress marker says the
        payload is neither signal nor spectrum."""
        marker = self._meta.get("pass_progress")
        if marker is None:
            return self._meta["domain"]
        if marker.get("writing"):
            raise BadArguments(
                f"{self.path}: pass {marker.get('passes_done')} of an external "
                f"transform was interrupted after its writes began, so the "
                f"payload is partly transformed and must be rebuilt. Rebuild "
                f"the dataset from its source.")
        raise BadArguments(
            f"{self.path} has an interrupted external transform "
            f"({marker.get('passes_done')}/{marker.get('total_passes')} "
            f"passes done); finish it with 'bigwht transform ext --resume' "
            f"(resume=True)"
        )

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self.element_kind]

    @property
    def progress_marker(self) -> dict | None:
        return self._meta.get("pass_progress")

    def set_domain(self, domain: str) -> None:
        self._meta["domain"] = Domain(domain)
        _write_sidecar(self.path, self._meta)

    def set_progress_marker(
        self, marker: dict | None, domain: str | None = None
    ) -> None:
        """Atomically record (or clear) external-transform pass progress.

        A ``domain`` changes in the same sidecar write, so no crash can
        leave the marker cleared but the domain not yet flipped.
        """
        if domain is not None:
            domain = Domain(domain)
        if marker is None:
            self._meta.pop("pass_progress", None)
        else:
            self._meta["pass_progress"] = marker
        if domain is not None:
            self._meta["domain"] = domain
        _write_sidecar(self.path, self._meta)

    # -- block I/O --------------------------------------------------------

    def _check_bounds(self, start: int, count: int) -> None:
        if count < 1 or start < 0 or start + count > self.dim:
            raise OutOfBounds(
                f"block [{start}, {start + count}) outside [0, {self.dim})"
            )

    def read_block(
        self, start: int, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Read ``count`` elements from ``start`` and return them.

        Without ``out`` the elements land in a new writable array. With it
        they fill ``out``, which must be a writable C-contiguous 1-D array
        of ``count`` elements of the dataset's dtype, and ``out`` is
        returned, so a loop can reuse one buffer.
        """
        self._check_bounds(start, count)
        if out is None:
            out = np.empty(count, dtype=self.dtype)
        elif not (
            isinstance(out, np.ndarray)
            and out.shape == (count,)
            and out.dtype == self.dtype
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            raise BadArguments(
                f"out must be a writable C-contiguous array of {count} "
                f"{self.dtype} elements"
            )
        if self.fault_hook is not None:
            self.fault_hook("read", start, count)
        _transfer(self._fd, os.preadv, memoryview(out).cast("B"),
                  start * ELEMENT_BYTES, "read")
        self.stats.count_read(count)
        return out

    def write_block(self, start: int, data: np.ndarray) -> None:
        data = np.asarray(data)
        if data.ndim != 1:
            raise BadArguments("write_block expects a 1-D array")
        self._check_bounds(start, data.shape[0])
        if data.dtype.kind != self.dtype.kind:
            raise BadArguments(
                f"dtype {data.dtype} does not match dataset kind {self.element_kind}"
            )
        if self.fault_hook is not None:
            self.fault_hook("write", start, data.shape[0])
        raw = np.ascontiguousarray(data, dtype=self.dtype)
        _transfer(self._fd, os.pwritev, memoryview(raw).cast("B"),
                  start * ELEMENT_BYTES, "write")
        self.stats.count_write(data.shape[0])
        self._unsynced += raw.nbytes
        if self._unsynced >= SYNC_BEHIND_BYTES:
            self._sync_behind()

    def _sync_behind(self) -> None:
        """Start a background fdatasync of the bytes written so far, unless
        one is still running (the bytes then wait for the next)."""
        if self._sync is not None:
            if not self._sync.done():
                return
            self._collect_sync()
        if self._syncer is None:
            self._syncer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="bigwht-sync"
            )
        self._unsynced = 0
        self._sync = self._syncer.submit(os.fdatasync, self._fd)

    def _collect_sync(self) -> None:
        """Wait for the background sync and raise its error, if any.

        Linux reports a writeback error once per open file, and the
        background sync may be the call that consumed it, so it must
        surface here rather than be dropped.
        """
        sync, self._sync = self._sync, None
        if sync is None:
            return
        try:
            sync.result()
        except OSError as exc:
            raise IoFailure(f"background fdatasync failed: {exc}") from exc

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        """Make every byte written so far durable."""
        self._collect_sync()
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise IoFailure(f"fsync failed: {exc}") from exc

    def close(self) -> None:
        """Close the file once a running background sync has finished;
        raises that sync's error, if any, after closing."""
        try:
            self._collect_sync()
        finally:
            if self._syncer is not None:
                self._syncer.shutdown()
                self._syncer = None
            self._f.close()
            self._fd = -1

    def __enter__(self) -> "DatasetFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def refuse_existing(path: str) -> None:
    """Raise ``PathExists`` if a dataset at ``path`` would overwrite its
    payload or sidecar. ``create`` checks this; a command calls it first,
    so a refused output costs no work and leaves no other file behind."""
    if os.path.exists(path) or os.path.exists(sidecar_path(path)):
        raise PathExists(f"{path} (or its sidecar) already exists")


def is_dataset_file(path: str) -> bool:
    """Whether ``path``, as named or with symlinks resolved, is a dataset
    payload (it has a sidecar) or an existing sidecar. A command that
    writes a plain file refuses such a path, so it cannot overwrite a
    dataset."""
    real = os.path.realpath(path)
    if real.endswith(sidecar_path("")) and os.path.exists(real):
        return True
    return any(os.path.exists(sidecar_path(p)) for p in (path, real))


def create(
    path: str,
    log2_dim: int,
    element_kind: str,
    domain: str = "time",
) -> DatasetFile:
    """Allocate a zero-filled dataset of exactly 8 * 2**n bytes plus sidecar."""
    if log2_dim < 0:
        raise BadArguments(f"log2_dim must be >= 0, got {log2_dim}")
    if element_kind not in _DTYPES:
        raise BadArguments(f"bad element_kind {element_kind!r}")
    domain = Domain(domain)
    refuse_existing(path)
    size = ELEMENT_BYTES << log2_dim
    parent = os.path.dirname(os.path.abspath(path)) or "."
    if shutil.disk_usage(parent).free < size:
        raise DiskFull(f"need {size} bytes free in {parent}")
    try:
        with open(path, "wb") as f:
            f.truncate(size)
    except OSError as exc:
        raise DiskFull(f"allocating {path}: {exc}") from exc
    meta = {
        "format_version": FORMAT_VERSION,
        "log2_dim": log2_dim,
        "element_kind": element_kind,
        "domain": domain,
    }
    _write_sidecar(path, meta)
    return DatasetFile(path, meta)


def open_validated(path: str) -> DatasetFile:
    """Open an existing dataset; the handle checks that the payload's size
    matches the sidecar."""
    return DatasetFile(path, _read_sidecar(path))


def adopt(path: str, element_kind: str, domain: str) -> int:
    """Write a sidecar for a bare payload, inferring n from the file size.

    The payload must already be exactly 8 * 2**n bytes; kind and domain
    cannot be guessed and must be supplied. Returns the inferred n.
    """
    if element_kind not in _DTYPES:
        raise BadArguments(f"bad element_kind {element_kind!r}")
    domain = Domain(domain)
    if os.path.exists(sidecar_path(path)):
        raise PathExists(f"{sidecar_path(path)} already exists")
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise SizeMismatch(f"payload {path} is missing: {exc}") from exc
    if size % ELEMENT_BYTES or not is_power_of_two(size // ELEMENT_BYTES):
        raise SizeMismatch(
            f"{path} is {size} bytes, not 8 * 2**n; cannot infer a dimension"
        )
    n = (size // ELEMENT_BYTES).bit_length() - 1
    _write_sidecar(path, {
        "format_version": FORMAT_VERSION,
        "log2_dim": n,
        "element_kind": element_kind,
        "domain": domain,
    })
    return n


def write_signal(path: str, data: np.ndarray, domain: str = "time") -> None:
    """Create a dataset holding ``data`` (int64 or float64, length 2**n)."""
    arr = np.asarray(data)
    # Refuse before create, which would leave a zero-filled dataset behind.
    check_signal_array(arr)
    ds = create(path, arr.size.bit_length() - 1, arr.dtype.name, domain=domain)
    try:
        ds.write_block(0, arr)
        ds.flush()
    finally:
        ds.close()


def read_signal(path: str) -> tuple[np.ndarray, str, Domain]:
    """Load a whole dataset into memory; returns (array, element_kind, domain).
    Checks the domain first, so an interrupted dataset is refused unread."""
    with open_validated(path) as ds:
        domain = ds.domain
        return ds.read_block(0, ds.dim), ds.element_kind, domain
