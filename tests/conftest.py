"""Helpers shared by the test modules, and the rule that a test may not
leave a thread running (beside pyproject's rule for open files)."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves running a thread it started."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"test left threads running: {leaked}")


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
