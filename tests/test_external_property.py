"""Property test of the disk engine: over small (n, B, S), both dtypes and
one or two CPUs, the blocked external transform equals the in-memory
kernel byte for byte, and its plan proves itself disjoint and complete."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.core import fwht_array
from bigwht.external import run_external_blocked
from bigwht.parallel import check_disjoint, total_butterflies

from conftest import set_cpus

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st


@st.composite
def engine_cases(draw):
    """(n, B, S, dtype, cpus, seed) with n <= 12, 1 <= B <= n + 2 and S a
    power of two <= 2**(B-1)."""
    n = draw(st.integers(0, 12))
    b = draw(st.integers(1, n + 2))
    s = 1 << draw(st.integers(0, b - 1))
    dtype = draw(st.sampled_from([np.int64, np.float64]))
    cpus = draw(st.sampled_from([1, 2]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, b, s, dtype, cpus, seed


# Derandomized and without an example database, so tier-1 runs the same
# examples every time and writes no files.
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(engine_cases())
def test_external_equals_in_memory(case):
    n, b, s, dtype, cpus, seed = case
    rng = np.random.default_rng(seed)
    if dtype == np.int64:
        data = rng.integers(-(1 << 20), 1 << 20, 1 << n, dtype=np.int64)
    else:
        data = rng.normal(size=1 << n)
    expected = data.copy()
    fwht_array(expected)
    # One directory and one monkeypatch per example: hypothesis refuses
    # function-scoped fixtures, which would be shared across examples.
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        set_cpus(monkeypatch, cpus)
        path = str(Path(tmp) / "sig.bin")
        dataset.write_signal(path, data)
        with dataset.open_validated(path) as ds:
            report = run_external_blocked(ds, b, io_block_elems=s)
        got, _, domain = dataset.read_signal(path)
    assert domain == "walsh"
    assert got.tobytes() == expected.tobytes()
    check_disjoint(report.plan)
    assert total_butterflies(report.plan) == (n << n) >> 1
