"""Low-level disk measurements: raw read/write speed and block-size
copy sweeps, optionally with direct (cache-bypassing) I/O.

The benchmark exists to measure the whole-dataset copy time that feeds
the runtime model's calibration; absolute numbers are machine-dependent
and never asserted. Each block size gets a freshly written source file so
one measurement's page-cache residue doesn't flatter the next.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from . import dataset
from .errors import BadArguments, DiskFull, IoFailure

# Single transfers above 1 GiB are capped and chunked internally; very
# large reads are exactly where plain read() calls start failing.
MAX_TRANSFER_BYTES = 1 << 30

DEFAULT_BLOCK_SIZES = tuple(mb << 20 for mb in (2, 8, 32, 128, 512, 1024))

_MB = 1e6


@dataclass
class CopyMeasurement:
    block_bytes: int
    seconds: float
    mbps: float
    transfers: int
    direct_io: bool
    capped_transfer_bytes: int | None = None
    warnings: list[str] = field(default_factory=list)


@dataclass
class BenchRow:
    block_bytes: int
    copy_seconds: float | None
    copy_mbps: float | None
    read_mbps: float | None
    write_mbps: float | None
    transfers: int | None
    direct_io: bool
    capped_transfer_bytes: int | None = None
    warnings: list[str] = field(default_factory=list)
    error: str | None = None


@dataclass
class IoBenchReport:
    file_bytes: int
    direct_io: bool
    rows: list[BenchRow]
    annotation: str = ""

    def validate(self) -> None:
        """Self-check: throughput times elapsed must reproduce the bytes."""
        for row in self.rows:
            if row.error or row.copy_seconds is None:
                continue
            implied = row.copy_mbps * _MB * row.copy_seconds
            if abs(implied - self.file_bytes) > 0.001 * self.file_bytes:
                raise BadArguments(
                    f"inconsistent row for block {row.block_bytes}: "
                    f"{row.copy_mbps} MB/s x {row.copy_seconds} s != "
                    f"{self.file_bytes} bytes"
                )

    def to_csv(self) -> str:
        lines = ["block_bytes,seconds,mbps"]
        for row in self.rows:
            if row.error:
                lines.append(f"{row.block_bytes},,")
            else:
                lines.append(
                    f"{row.block_bytes},{row.copy_seconds:.6f},{row.copy_mbps:.3f}"
                )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = (
            f"{'block':>12} {'copy s':>10} {'copy MB/s':>10} "
            f"{'read MB/s':>10} {'write MB/s':>10}"
        )
        lines = [
            f"file size: {self.file_bytes} bytes, "
            f"direct I/O {'on' if self.direct_io else 'off'}",
            header,
        ]
        for row in self.rows:
            if row.error:
                lines.append(f"{row.block_bytes:>12} failed: {row.error}")
                continue

            def fmt(v):
                return f"{v:>10.2f}" if v is not None else f"{'-':>10}"

            lines.append(
                f"{row.block_bytes:>12} {row.copy_seconds:>10.3f} "
                f"{fmt(row.copy_mbps)} {fmt(row.read_mbps)} {fmt(row.write_mbps)}"
            )
            for w in row.warnings:
                lines.append(f"{'':>12} note: {w}")
        if self.annotation:
            lines.append(self.annotation)
        return "\n".join(lines) + "\n"


def _open(path: str, flags: int, direct: bool, warnings: list[str]) -> int:
    """os.open, with O_DIRECT when ``direct``; where direct I/O is
    unavailable, falls back to buffered and says so in ``warnings``."""
    if direct and hasattr(os, "O_DIRECT"):
        try:
            return os.open(path, flags | os.O_DIRECT)
        except OSError as exc:
            warnings.append(
                f"direct I/O unavailable ({exc}); fell back to buffered"
            )
    elif direct:
        warnings.append(
            "direct I/O not supported on this platform; fell back to buffered"
        )
    try:
        return os.open(path, flags)
    except OSError as exc:
        raise IoFailure(f"open {path}: {exc}") from exc


def _fill_source(path: str, nbytes: int, seed: int) -> None:
    """Write ``nbytes`` of seeded pseudorandom data and fsync it."""
    rng = np.random.default_rng(seed)
    chunk = 8 << 20
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    try:
        for offset in range(0, nbytes, chunk):
            data = memoryview(rng.bytes(min(chunk, nbytes - offset)))
            dataset._transfer(fd, os.pwritev, data, offset, "write")
        os.fsync(fd)
    finally:
        os.close(fd)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(8 << 20)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def _check_scratch(directory: str, needed: int) -> None:
    free = shutil.disk_usage(directory).free
    if free < needed:
        raise DiskFull(
            f"{directory}: need {needed} bytes of scratch, only {free} free"
        )


def _stream(src: str | None, dst: str | None, nbytes: int, transfer: int,
            direct: bool, warnings: list[str]) -> float:
    """Time moving ``nbytes`` in ``transfer``-byte chunks through the
    dataset layer's transfer loop.

    Each chunk is read from ``src`` when given and written to ``dst`` when
    given, so one call is a copy, a read to nowhere or a write of a 0xA5
    pattern; the write side is fsynced. The clock runs from the first open
    to the last close. Once an open has fallen back to buffered I/O, the
    other does too.
    """
    # mmap gives page-aligned memory, satisfying O_DIRECT's buffer rule.
    buf = mmap.mmap(-1, transfer)
    if src is None:  # fill in place: a bytes pattern would be a second buffer
        np.frombuffer(buf, dtype=np.uint8).fill(0xA5)
    view = memoryview(buf)
    ends = []  # (fd, call, what) for each side given
    started = time.perf_counter()
    try:
        for path, flags, call, what in (
            (src, os.O_RDONLY, os.preadv, "read"),
            (dst, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, os.pwritev, "write"),
        ):
            if path is not None:
                fd = _open(path, flags, direct and not warnings, warnings)
                ends.append((fd, call, what))
        for offset in range(0, nbytes, transfer):
            chunk = view[: min(transfer, nbytes - offset)]
            for fd, call, what in ends:
                dataset._transfer(fd, call, chunk, offset, what)
        if dst is not None:
            os.fsync(ends[-1][0])
    finally:
        for fd, _, _ in ends:
            os.close(fd)
    return time.perf_counter() - started


def measure_copy(
    directory: str,
    file_bytes: int,
    block_bytes: int,
    direct_io: bool = False,
    seed: int | None = None,
) -> CopyMeasurement:
    """Copy a freshly written file block-by-block and time it.

    The clock covers the block loop plus the final durability flush. The
    copy is checksum-verified against the source after the clock stops;
    both files are deleted before returning.
    """
    if file_bytes < 1 or block_bytes < 1:
        raise BadArguments("file_bytes and block_bytes must be positive")
    _check_scratch(directory, 2 * file_bytes)
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "little")
    transfer = min(block_bytes, MAX_TRANSFER_BYTES)
    warnings: list[str] = []
    with tempfile.TemporaryDirectory(prefix="iobench_", dir=directory,
                                     ignore_cleanup_errors=True) as tmp:
        src, dst = os.path.join(tmp, "src"), os.path.join(tmp, "dst")
        _fill_source(src, file_bytes, seed)
        seconds = _stream(src, dst, file_bytes, transfer, direct_io, warnings)
        if _sha256(src) != _sha256(dst):
            raise IoFailure(f"copy of {src} is not byte-identical")
    return CopyMeasurement(
        block_bytes=block_bytes,
        seconds=seconds,
        mbps=file_bytes / seconds / _MB,
        transfers=-(-file_bytes // block_bytes),  # ceil
        direct_io=direct_io and not warnings,
        capped_transfer_bytes=transfer if transfer != block_bytes else None,
        warnings=warnings,
    )


def _measure_raw(directory: str, file_bytes: int, block_bytes: int,
                 direct_io: bool, seed: int,
                 warnings: list[str]) -> tuple[float, float]:
    """dd-style read and write speeds in MB/s: a fresh file streamed to
    nowhere, then a new file written with a pattern and fsynced. Direct
    I/O fallback notes go to ``warnings``."""
    transfer = min(block_bytes, MAX_TRANSFER_BYTES)
    with tempfile.TemporaryDirectory(prefix="iobench_", dir=directory,
                                     ignore_cleanup_errors=True) as tmp:
        rd, wr = os.path.join(tmp, "rd"), os.path.join(tmp, "wr")
        _fill_source(rd, file_bytes, seed)
        read_s = _stream(rd, None, file_bytes, transfer, direct_io, warnings)
        os.unlink(rd)
        write_s = _stream(None, wr, file_bytes, transfer, direct_io, warnings)
    return file_bytes / read_s / _MB, file_bytes / write_s / _MB


def sweep(
    directory: str,
    file_bytes: int,
    block_sizes: list[int] | tuple[int, ...] = DEFAULT_BLOCK_SIZES,
    direct_io: bool = False,
    seed: int | None = None,
    measure_raw: bool = True,
) -> IoBenchReport:
    """Run the copy measurement per block size; failures don't abort the
    sweep, they land in the row's error field."""
    sizes = list(dict.fromkeys(block_sizes))  # dedupe, keep order
    if not sizes:
        raise BadArguments("block size list is empty")
    if file_bytes < 1:
        raise BadArguments("file_bytes must be positive")
    if seed is None:
        seed = int.from_bytes(os.urandom(4), "little")
    rows = []
    for i, block in enumerate(sizes):
        try:
            copy = measure_copy(directory, file_bytes, block, direct_io,
                                seed=seed + 3 * i)
            read_mbps = write_mbps = None
            warnings = list(copy.warnings)
            if measure_raw:
                read_mbps, write_mbps = _measure_raw(
                    directory, file_bytes, block, direct_io, seed + 3 * i + 1,
                    warnings,
                )
            rows.append(
                BenchRow(
                    block_bytes=block,
                    copy_seconds=copy.seconds,
                    copy_mbps=copy.mbps,
                    read_mbps=read_mbps,
                    write_mbps=write_mbps,
                    transfers=copy.transfers,
                    direct_io=copy.direct_io,
                    capped_transfer_bytes=copy.capped_transfer_bytes,
                    warnings=warnings,
                )
            )
        except (OSError, IoFailure, DiskFull) as exc:
            rows.append(
                BenchRow(
                    block_bytes=block,
                    copy_seconds=None,
                    copy_mbps=None,
                    read_mbps=None,
                    write_mbps=None,
                    transfers=None,
                    direct_io=direct_io,
                    error=str(exc),
                )
            )
    report = IoBenchReport(
        file_bytes=file_bytes,
        direct_io=direct_io,
        rows=rows,
        annotation=_trend_note(rows),
    )
    report.validate()
    return report


def _trend_note(rows: list[BenchRow]) -> str:
    ok = [r for r in rows if r.error is None and r.copy_seconds is not None]
    if len(ok) < 2:
        return ""
    first, last = ok[0], ok[-1]
    if last.copy_seconds < first.copy_seconds:
        return (
            f"copy time decreased from {first.copy_seconds:.3f}s "
            f"@ {first.block_bytes}B blocks to {last.copy_seconds:.3f}s "
            f"@ {last.block_bytes}B blocks"
        )
    return (
        f"no copy-time improvement from larger blocks on this host "
        f"({first.copy_seconds:.3f}s -> {last.copy_seconds:.3f}s)"
    )
