"""Helpers shared by the test modules."""

import os


def trickle(call, limit):
    """os.preadv/os.pwritev stand-in that moves at most ``limit`` bytes."""

    def partial(fd, buffers, offset):
        return call(fd, [buffers[0][:limit]], offset)

    return partial


def set_cpus(monkeypatch, cpus):
    """Make ``parallel.usable_cpus`` see ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
