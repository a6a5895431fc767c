"""What the machine was, recorded next to every result.

Reads only: /proc and /sys are parsed where they exist, and the O_DIRECT
probe opens a file in the benchmark's own work directory.
"""

from __future__ import annotations

import os
import platform
import sys

import numpy as np

PAGE_CACHE_NOTE = (
    "datasets stay in the page cache: the benchmark never drops it (that "
    "needs host privileges it does not use), so disk figures are this "
    "host's cached I/O and writeback, not a device's"
)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict[str, str]:
    """Cache sizes of cpu0 as the kernel reports them, e.g. {'L3': '307200K'}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = (_read(f"{base}/{entry}/level") or "").strip()
        kind = (_read(f"{base}/{entry}/type") or "").strip()
        size = (_read(f"{base}/{entry}/size") or "").strip()
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def filesystem_type(path: str) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    for line in (_read("/proc/self/mountinfo") or "").splitlines():
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4].replace("\\040", " ")
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def direct_io_opens(directory: str) -> bool:
    if not hasattr(os, "O_DIRECT"):
        return False
    probe = os.path.join(directory, "odirect_probe")
    try:
        fd = os.open(probe, os.O_RDWR | os.O_CREAT | os.O_DIRECT, 0o600)
    except OSError:
        return False
    os.close(fd)
    os.unlink(probe)
    return True


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat.

    Steal is time the hypervisor ran something else while a virtual CPU
    wanted to run; it shows when neighbours slowed a measurement.
    """
    fields = (_read("/proc/stat") or "").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(v) for v in fields[1:9]]  # user .. steal; guest is inside user
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def describe(workdir: str, dataset_bytes: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "caches": caches(),
        "dataset_bytes": dataset_bytes,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "filesystem": filesystem_type(workdir),
        "o_direct_opens": direct_io_opens(workdir),
        "page_cache": PAGE_CACHE_NOTE,
    }
