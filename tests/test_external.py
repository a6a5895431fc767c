"""Out-of-core executor tests: pass planning, byte-identical agreement
with the in-memory transform, per-pass I/O accounting, and restart after
an injected failure."""

import os
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset, external
from bigwht.core import fwht_array
from bigwht.errors import BadArguments, BadBlockSize, IoFailure, OverflowBoundError
from bigwht.external import (
    ExternalMode,
    pass_io_volume,
    plan_external,
    run_external_blocked,
    run_external_entrywise,
)


def make_dataset(tmp_path, n, data=None, seed=0, name="sig.bin"):
    path = str(tmp_path / name)
    if data is None:
        rng = np.random.default_rng(seed)
        data = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
    dataset.write_signal(path, data)
    return path, data


class TestPlan:
    def test_quoted_pass_counts(self):
        # The reference workloads: 32 GB dataset with 8 GB and 4 GB budgets.
        assert plan_external(32, 30, ExternalMode.BLOCKED, 4096).q == 3
        assert plan_external(32, 29, ExternalMode.BLOCKED, 4096).q == 4

    def test_fits_in_memory(self):
        plan = plan_external(10, 12, ExternalMode.BLOCKED, 4096)
        assert plan.q == 1
        assert plan.passes[0].stage is None

    def test_stage_sequence(self):
        plan = plan_external(12, 8, ExternalMode.ENTRYWISE, 8)
        assert plan.q == 5
        assert [p.stage for p in plan.passes] == [None, 8, 9, 10, 11]

    def test_block_size_validation(self):
        with pytest.raises(BadBlockSize):
            plan_external(12, 8, ExternalMode.BLOCKED, 12)  # not 8 * 2**k
        with pytest.raises(BadBlockSize):
            plan_external(12, 8, ExternalMode.BLOCKED, 3 << 3)
        # S = 2**B is one doubling too far; S = 2**(B-1) is the limit.
        with pytest.raises(BadBlockSize):
            plan_external(12, 8, ExternalMode.BLOCKED, 8 << 8)
        plan_external(12, 8, ExternalMode.BLOCKED, 8 << 7)
        # Entry-wise is the stage pass with S = 1 and nothing else.
        with pytest.raises(BadBlockSize):
            plan_external(12, 8, ExternalMode.ENTRYWISE, 16)

    def test_io_volume(self):
        assert pass_io_volume(plan_external(32, 30, ExternalMode.BLOCKED, 4096)) \
            == 3 * 2 * (8 << 32)
        assert pass_io_volume(plan_external(12, 12, ExternalMode.BLOCKED, 4096)) \
            == 2 * (8 << 12)
        assert pass_io_volume(plan_external(12, 8, ExternalMode.ENTRYWISE, 8)) \
            == 5 * 2 * (8 << 12)


class TestEntrywise:
    def test_matches_in_memory(self, tmp_path):
        path, data = make_dataset(tmp_path, 12)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            run_external_entrywise(ds, 8)
        got, _, domain = dataset.read_signal(path)
        assert domain == "walsh"
        assert np.array_equal(got, expected)

    def test_n_equals_budget(self, tmp_path):
        path, data = make_dataset(tmp_path, 8)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            report = run_external_entrywise(ds, 8)
        assert report.plan.q == 1
        got, _, _ = dataset.read_signal(path)
        assert np.array_equal(got, expected)

    def test_delta_file(self, tmp_path):
        n = 12
        data = np.zeros(1 << n, dtype=np.int64)
        data[0] = 1
        path, _ = make_dataset(tmp_path, n, data=data)
        with dataset.open_validated(path) as ds:
            run_external_entrywise(ds, 8)
        got, _, _ = dataset.read_signal(path)
        assert np.all(got == 1)

    def test_float_dataset(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.normal(size=1 << 10)
        path = str(tmp_path / "f.bin")
        dataset.write_signal(path, data)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            run_external_entrywise(ds, 6)
        got, _, _ = dataset.read_signal(path)
        assert np.array_equal(got, expected)


def skip_rule_ops(n, b):
    """Operations of the paper's entry-wise loop: pass 0 moves whole
    superblocks, then stage k walks pt over the indices with bit k clear
    (the low-bits skip rule) and reads, then writes, pt and pt + 2**k."""
    ops = []
    for start in range(0, 1 << n, 1 << b):
        ops += [("read", start, 1 << b), ("write", start, 1 << b)]
    for stage in range(b, n):
        j = 1 << stage
        pt = 0
        for _ in range(1 << (n - 1)):
            ops += [("read", pt, 1), ("read", pt + j, 1),
                    ("write", pt, 1), ("write", pt + j, 1)]
            pt += 1
            if pt & (j - 1) == 0:  # LSB_k(pt) == 0: skip over the partner run
                pt += j
    return ops


class TestEntrywiseAccessPattern:
    def test_matches_skip_rule_loop(self, tmp_path):
        n, b = 6, 3
        path, _ = make_dataset(tmp_path, n)
        ops = []
        with dataset.open_validated(path) as ds:
            ds.fault_hook = lambda op, start, count: ops.append((op, start, count))
            run_external_entrywise(ds, b)
        assert ops == skip_rule_ops(n, b)


class TestBlocked:
    def test_matches_in_memory(self, tmp_path):
        path, data = make_dataset(tmp_path, 14)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, 10, io_block_elems=1 << 8)
        got, _, _ = dataset.read_signal(path)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_tile_boundary_byte_identical(self, tmp_path, dtype):
        # n = 18 > B = 17 > TILE_LOG2 = 16: pass 0 runs whole tiles plus
        # one cross-tile stage per superblock, then one blocked stage pass.
        n, b = 18, 17
        rng = np.random.default_rng(18)
        if dtype == np.int64:
            data = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
        else:
            data = rng.normal(size=1 << n)
        path, _ = make_dataset(tmp_path, n, data=data)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, b, io_block_elems=1 << 16)
        got, _, _ = dataset.read_signal(path)
        assert got.tobytes() == expected.tobytes()

    def test_block_size_independence(self, tmp_path):
        results = []
        for s_log2 in (4, 6, 9):
            path, data = make_dataset(tmp_path, 14, seed=3,
                                      name=f"s{s_log2}.bin")
            with dataset.open_validated(path) as ds:
                run_external_blocked(ds, 10, io_block_elems=1 << s_log2)
            results.append(dataset.read_signal(path)[0])
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])

    def test_oversized_block_rejected(self, tmp_path):
        path, _ = make_dataset(tmp_path, 12)
        with dataset.open_validated(path) as ds:
            with pytest.raises(BadBlockSize):
                run_external_blocked(ds, 8, io_block_elems=1 << 8)

    def test_default_block_sizing(self):
        assert external.default_io_block_elems(30) == 1 << 24  # 128 MB
        assert external.default_io_block_elems(10) == 1 << 9


class TestModesAgree:
    def test_both_modes_byte_identical(self, tmp_path):
        for n, b in ((10, 8), (13, 12)):
            path_e, data = make_dataset(tmp_path, n, seed=n, name=f"e{n}.bin")
            path_b = str(tmp_path / f"b{n}.bin")
            dataset.write_signal(path_b, data)
            with dataset.open_validated(path_e) as ds:
                run_external_entrywise(ds, b)
            with dataset.open_validated(path_b) as ds:
                run_external_blocked(ds, b, io_block_elems=1 << 4)
            assert Path(path_e).read_bytes() == Path(path_b).read_bytes()


class TestAccounting:
    def test_each_pass_touches_every_element_once(self, tmp_path):
        n, b = 12, 8
        path, _ = make_dataset(tmp_path, n)
        with dataset.open_validated(path) as ds:
            boundaries = [ds.stats.snapshot()]

            original_flush = ds.flush

            def tracking_flush():
                original_flush()
                boundaries.append(ds.stats.snapshot())

            ds.flush = tracking_flush
            report = run_external_blocked(ds, b, io_block_elems=1 << 5)
        assert report.plan.q == n - b + 1
        assert len(boundaries) == report.plan.q + 1
        for before, after in zip(boundaries[:-1], boundaries[1:]):
            assert after[2] - before[2] == 1 << n  # elements read
            assert after[3] - before[3] == 1 << n  # elements written

    def test_entrywise_pass_accounting(self, tmp_path):
        n, b = 10, 8
        path, _ = make_dataset(tmp_path, n)
        with dataset.open_validated(path) as ds:
            report = run_external_entrywise(ds, b)
            total = ds.stats.elements_read
        assert report.plan.q == 3
        assert total == report.plan.q * (1 << n)


class TestRestart:
    def test_refuses_non_time_domain(self, tmp_path):
        path, _ = make_dataset(tmp_path, 10)
        with dataset.open_validated(path) as ds:
            ds.set_domain("walsh")
            with pytest.raises(BadArguments):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)

    def test_kill_after_pass_and_resume(self, tmp_path):
        n, b, s = 12, 8, 1 << 4
        path, data = make_dataset(tmp_path, n, seed=17)
        reference = data.copy()
        fwht_array(reference)

        # Fail on the first read of pass 3 (i.e. after pass 2 completed).
        with dataset.open_validated(path) as ds:
            reads_per_pass = 1 << (n - b)  # pass 0 superblock reads
            stage_reads = (1 << n) // s    # block reads per stage pass
            allowed = reads_per_pass + 3 * stage_reads

            state = {"reads": 0}

            def hook(op, start, count):
                if op == "read":
                    state["reads"] += 1
                    if state["reads"] > allowed:
                        raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, b, io_block_elems=s)

        with dataset.open_validated(path) as ds:
            marker = ds.progress_marker
            assert marker is not None
            assert marker["passes_done"] == 4  # passes 0..3 done
            assert ds.domain == "time"

        # Without resume the partial run is refused.
        with dataset.open_validated(path) as ds:
            with pytest.raises(BadArguments):
                run_external_blocked(ds, b, io_block_elems=s)
            # Mismatched parameters are refused too.
            with pytest.raises(BadArguments):
                run_external_blocked(ds, b, io_block_elems=s * 2, resume=True)
            report = run_external_blocked(ds, b, io_block_elems=s, resume=True)

        assert report.resumed_from == 4
        got, _, domain = dataset.read_signal(path)
        assert domain == "walsh"
        assert np.array_equal(got, reference)

    def test_mid_write_kill_refused_on_resume(self, tmp_path):
        # A kill after a pass started writing is not resumable: re-running
        # the pass would butterfly already-butterflied pairs.
        n, b, s = 12, 8, 1 << 4
        path, _ = make_dataset(tmp_path, n, seed=29)
        with dataset.open_validated(path) as ds:
            state = {"writes": 0}

            def hook(op, start, count):
                if op == "write":
                    state["writes"] += 1
                    if state["writes"] > 20:  # partway through pass 0
                        raise IoFailure("injected mid-write kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, b, io_block_elems=s)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["writing"] is True
            with pytest.raises(BadArguments, match="writes began"):
                run_external_blocked(ds, b, io_block_elems=s, resume=True)

    def test_read_failure_before_first_write_resumable(self, tmp_path):
        # A pass that fails on its opening reads has written nothing, so
        # the completed-pass prefix stays resumable.
        n, b, s = 10, 8, 1 << 4
        path, data = make_dataset(tmp_path, n, seed=31)
        reference = data.copy()
        fwht_array(reference)
        with dataset.open_validated(path) as ds:
            state = {"reads": 0}
            allowed = (1 << (n - b)) + 1  # second read of pass 1

            def hook(op, start, count):
                if op == "read":
                    state["reads"] += 1
                    if state["reads"] > allowed:
                        raise IoFailure("injected read failure")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, b, io_block_elems=s)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["writing"] is False
            assert ds.progress_marker["passes_done"] == 1
            run_external_blocked(ds, b, io_block_elems=s, resume=True)
        got, _, _ = dataset.read_signal(path)
        assert np.array_equal(got, reference)

    def test_resume_entrywise(self, tmp_path):
        n, b = 10, 8
        path, data = make_dataset(tmp_path, n, seed=23)
        reference = data.copy()
        fwht_array(reference)
        with dataset.open_validated(path) as ds:
            allowed = (1 << (n - b)) + (1 << n)  # through the end of pass 1
            state = {"reads": 0}

            def hook(op, start, count):
                if op == "read":
                    state["reads"] += 1
                    if state["reads"] > allowed:
                        raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_entrywise(ds, b)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["passes_done"] == 2
            run_external_entrywise(ds, b, resume=True)
        got, _, _ = dataset.read_signal(path)
        assert np.array_equal(got, reference)


class TestOverflowGuard:
    def test_overflow_detected_in_initial_pass(self, tmp_path):
        n = 10
        data = np.full(1 << n, 1 << 53, dtype=np.int64)
        path, _ = make_dataset(tmp_path, n, data=data)
        with dataset.open_validated(path) as ds:
            with pytest.raises(OverflowBoundError):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)
