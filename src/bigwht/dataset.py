"""On-disk dataset format and block I/O.

A dataset is a raw little-endian array of 2**n 8-byte elements (so the
payload stays mmap-friendly and readable by any tool) plus a JSON sidecar
``<path>.meta.json`` carrying log2_dim, element_kind, domain and
format_version. The sidecar also hosts the pass-progress marker used to
restart interrupted external transforms.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil

import numpy as np

from .bits import is_power_of_two
from .errors import (
    BadArguments,
    BadMetadata,
    DirectIoUnsupported,
    DiskFull,
    IoFailure,
    OutOfBounds,
    PathExists,
    SizeMismatch,
)

ELEMENT_BYTES = 8
FORMAT_VERSION = 1
ALIGN_ENV = "BIGWHT_IO_ALIGN"
DEFAULT_ALIGNMENT = 4096

_DTYPES = {"int64": np.dtype("<i8"), "float64": np.dtype("<f8")}
_DOMAINS = ("time", "walsh")


def io_alignment() -> int:
    """Direct-I/O buffer/offset alignment; override via BIGWHT_IO_ALIGN."""
    raw = os.environ.get(ALIGN_ENV)
    if raw is None:
        return DEFAULT_ALIGNMENT
    try:
        align = int(raw)
    except ValueError as exc:
        raise BadMetadata(f"{ALIGN_ENV} must be an integer, got {raw!r}") from exc
    if align < 512 or not is_power_of_two(align):
        raise BadMetadata(f"{ALIGN_ENV} must be a power of two >= 512")
    return align


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
    if meta.get("domain") not in _DOMAINS:
        raise BadMetadata(f"bad domain {meta.get('domain')!r}")
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
    and fault-injection tests."""

    __slots__ = ("reads", "writes", "elements_read", "elements_written")

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.elements_read = 0
        self.elements_written = 0

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.reads, self.writes, self.elements_read, self.elements_written)


class DatasetFile:
    """Handle to an on-disk signal; confine each handle to one thread.

    ``fault_hook``, when set, is called as hook(op, start, count) before
    every I/O operation and may raise to simulate failures.
    """

    def __init__(self, path: str, meta: dict, direct: bool = False):
        self.path = path
        self._meta = meta
        self.direct = direct
        self.stats = IoStats()
        self.fault_hook = None
        self._expected_bytes = ELEMENT_BYTES << self.log2_dim
        actual = os.path.getsize(path)
        if actual != self._expected_bytes:
            raise SizeMismatch(
                f"{path}: payload is {actual} bytes, sidecar implies "
                f"{self._expected_bytes}"
            )
        if direct:
            self._open_direct()
        else:
            self._f = open(path, "r+b", buffering=0)
            self._fd = self._f.fileno()

    def _open_direct(self) -> None:
        if not hasattr(os, "O_DIRECT"):
            raise DirectIoUnsupported("os.O_DIRECT is not available here")
        try:
            self._fd = os.open(self.path, os.O_RDWR | os.O_DIRECT)
        except OSError as exc:
            raise DirectIoUnsupported(f"open(O_DIRECT) failed: {exc}") from exc
        self._f = None
        self._align = io_alignment()
        self._buf = mmap.mmap(-1, max(self._align, 1 << 20))

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
    def domain(self) -> str:
        return self._meta["domain"]

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self.element_kind]

    @property
    def progress_marker(self) -> dict | None:
        return self._meta.get("pass_progress")

    def set_domain(self, domain: str) -> None:
        if domain not in _DOMAINS:
            raise BadArguments(f"bad domain {domain!r}")
        self._meta["domain"] = domain
        _write_sidecar(self.path, self._meta)

    def set_progress_marker(self, marker: dict | None) -> None:
        """Atomically record (or clear) external-transform pass progress."""
        if marker is None:
            self._meta.pop("pass_progress", None)
        else:
            self._meta["pass_progress"] = marker
        _write_sidecar(self.path, self._meta)

    # -- block I/O --------------------------------------------------------

    def _check_bounds(self, start: int, count: int) -> None:
        if count < 1 or start < 0 or start + count > self.dim:
            raise OutOfBounds(
                f"block [{start}, {start + count}) outside [0, {self.dim})"
            )

    def read_block(self, start: int, count: int) -> np.ndarray:
        """Read ``count`` elements from ``start``; returns a writable array."""
        self._check_bounds(start, count)
        if self.fault_hook is not None:
            self.fault_hook("read", start, count)
        out = np.empty(count, dtype=self.dtype)
        self._move(os.preadv, memoryview(out).cast("B"), start * ELEMENT_BYTES, "read")
        self.stats.reads += 1
        self.stats.elements_read += count
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
        self._move(os.pwritev, memoryview(raw).cast("B"), start * ELEMENT_BYTES, "write")
        self.stats.writes += 1
        self.stats.elements_written += data.shape[0]

    def _move(self, call, view: memoryview, offset: int, what: str) -> None:
        """Transfer all of ``view`` at byte ``offset`` with ``call``."""
        if not self.direct:
            _transfer(self._fd, call, view, offset, what)
            return
        if offset % self._align or len(view) % self._align:
            raise BadArguments(
                f"direct I/O needs offset and size aligned to {self._align}"
            )
        # O_DIRECT needs an aligned buffer and caller arrays are not
        # page-aligned, so each chunk passes through the mmap'd bounce buffer.
        bounce = memoryview(self._buf)
        for pos in range(0, len(view), len(bounce)):
            chunk = view[pos : pos + len(bounce)]
            staged = bounce[: len(chunk)]
            if what == "write":
                staged[:] = chunk
            _transfer(self._fd, call, staged, offset + pos, "direct " + what)
            if what == "read":
                chunk[:] = staged

    # -- lifecycle --------------------------------------------------------

    def flush(self) -> None:
        try:
            os.fsync(self._fd)
        except OSError as exc:
            raise IoFailure(f"fsync failed: {exc}") from exc

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
        else:
            os.close(self._fd)
            self._buf.close()
        self._fd = -1

    def __enter__(self) -> "DatasetFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create(
    path: str,
    log2_dim: int,
    element_kind: str,
    domain: str = "time",
    direct: bool = False,
) -> DatasetFile:
    """Allocate a zero-filled dataset of exactly 8 * 2**n bytes plus sidecar."""
    if log2_dim < 0:
        raise BadArguments(f"log2_dim must be >= 0, got {log2_dim}")
    if element_kind not in _DTYPES:
        raise BadArguments(f"bad element_kind {element_kind!r}")
    if domain not in _DOMAINS:
        raise BadArguments(f"bad domain {domain!r}")
    if os.path.exists(path) or os.path.exists(sidecar_path(path)):
        raise PathExists(f"{path} (or its sidecar) already exists")
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
    return DatasetFile(path, meta, direct=direct)


def open_validated(path: str, direct: bool = False) -> DatasetFile:
    """Open an existing dataset, verifying sidecar and payload size agree."""
    meta = _read_sidecar(path)
    try:
        os.path.getsize(path)
    except OSError as exc:
        raise SizeMismatch(f"payload {path} is missing: {exc}") from exc
    return DatasetFile(path, meta, direct=direct)


def adopt(path: str, element_kind: str, domain: str) -> int:
    """Write a sidecar for a bare payload, inferring n from the file size.

    The payload must already be exactly 8 * 2**n bytes; kind and domain
    cannot be guessed and must be supplied. Returns the inferred n.
    """
    if element_kind not in _DTYPES:
        raise BadArguments(f"bad element_kind {element_kind!r}")
    if domain not in _DOMAINS:
        raise BadArguments(f"bad domain {domain!r}")
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
    kind = {np.dtype(np.int64): "int64", np.dtype(np.float64): "float64"}.get(
        arr.dtype
    )
    if kind is None:
        raise BadArguments(f"unsupported dtype {arr.dtype}")
    n = int(arr.shape[0]).bit_length() - 1
    if (1 << n) != arr.shape[0]:
        raise BadArguments("length must be a power of two")
    ds = create(path, n, kind, domain=domain)
    try:
        ds.write_block(0, arr)
        ds.flush()
    finally:
        ds.close()


def read_signal(path: str) -> tuple[np.ndarray, str, str]:
    """Load a whole dataset into memory; returns (array, element_kind, domain)."""
    ds = open_validated(path)
    try:
        arr = ds.read_block(0, ds.dim)
        return arr, ds.element_kind, ds.domain
    finally:
        ds.close()
