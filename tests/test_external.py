"""Out-of-core executor tests: pass planning, byte-identical agreement
with the in-memory transform, per-pass I/O accounting, and restart after
an injected failure."""

import errno
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bigwht import core, dataset, external, parallel, subspace
from bigwht.core import TILE_ELEMS, Signal, fwht_array
from bigwht.errors import BadArguments, BadBlockSize, IoFailure, OverflowBoundError
from bigwht.external import (
    pass_io_volume,
    plan_external,
    run_external_blocked,
    run_external_entrywise,
)
from bigwht.noisy import extract_above_dataset
from bigwht.parallel import (check_disjoint, plan_parallel, run_parallel,
                             total_butterflies)

from conftest import set_cpus


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
        assert plan_external(32, 30, 512).q == 3
        assert plan_external(32, 29, 512).q == 4

    def test_fits_in_memory(self):
        plan = plan_external(10, 12, 512)
        assert plan.q == 1
        assert list(plan.stages) == []
        assert list(plan.chunks()) == [0]

    def test_stage_sequence(self):
        plan = plan_external(12, 8, 1)
        assert plan.q == 5
        assert [None, *plan.stages] == [None, 8, 9, 10, 11]

    def test_small_plans_disjoint_and_complete(self):
        # The passes run the thread schedule's plan type, so its checker
        # proves them too: every n <= 10, B and S = 2**s <= 2**(B-1),
        # entry-wise (S = 1) included.
        for n in range(1, 11):
            for b in range(1, n + 1):
                for s in range(b):
                    plan = plan_external(n, b, 1 << s)
                    check_disjoint(plan)
                    assert total_butterflies(plan) == n << (n - 1)

    def test_block_size_validation(self):
        for bad in (0, -1, 3, 12):  # not a power of two
            with pytest.raises(BadBlockSize):
                plan_external(12, 8, bad)
        # S = 2**B is one doubling too far; S = 2**(B-1) is the limit.
        with pytest.raises(BadBlockSize):
            plan_external(12, 8, 1 << 8)
        plan_external(12, 8, 1 << 7)

    def test_io_volume(self):
        assert pass_io_volume(plan_external(32, 30, 512)) == 3 * 2 * (8 << 32)
        assert pass_io_volume(plan_external(12, 12, 512)) == 2 * (8 << 12)
        assert pass_io_volume(plan_external(12, 8, 1)) == 5 * 2 * (8 << 12)


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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_element_dataset(self, tmp_path, monkeypatch, cpus):
        # n = 0 gives B = 0: pass 0 is one chunk of one element, the identity.
        set_cpus(monkeypatch, cpus)
        path, data = make_dataset(tmp_path, 0)
        with dataset.open_validated(path) as ds:
            report = run_external_blocked(ds, 8)
        assert report.passes_executed == [0]
        got, _, domain = dataset.read_signal(path)
        assert domain == "walsh"
        assert got.tobytes() == data.tobytes()

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

    @pytest.mark.parametrize("b", [0, -1])
    def test_budget_below_one_refused_before_default_block(self, tmp_path, b):
        # The default S is 2**(B-1): B must be refused before it is worked
        # out, or B = 0 dies on a negative shift.
        path, _ = make_dataset(tmp_path, 4)
        with dataset.open_validated(path) as ds:
            with pytest.raises(BadArguments, match="mem_log2"):
                run_external_blocked(ds, b)


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
            with pytest.raises(BadArguments, match="--resume"):
                ds.domain

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

    @pytest.mark.parametrize("index", [0, 1, 4])
    def test_failed_first_write_of_pass_refused(self, tmp_path, index):
        # The executor records "writing" just before a pass's first write,
        # so a write that fails at once already counts as begun.
        n, b, s = 12, 8, 1 << 4
        path, _ = make_dataset(tmp_path, n, seed=73)
        # Pass 0 writes 2**(n-B) superblocks, a stage pass 2**n / S runs.
        allowed = index and (1 << (n - b)) + (index - 1) * ((1 << n) // s)
        with dataset.open_validated(path) as ds:
            writes = {"n": 0}

            def hook(op, start, count):
                writes["n"] += op == "write"
                if writes["n"] > allowed:
                    raise IoFailure("injected failure of a pass's first write")

            ds.fault_hook = hook
            with pytest.raises(IoFailure, match="first write"):
                run_external_blocked(ds, b, io_block_elems=s)
            ds.fault_hook = None
            assert ds.progress_marker == {
                "mem_log2": b, "io_block_elems": s, "passes_done": index,
                "total_passes": n - b + 1, "writing": True}
            with pytest.raises(BadArguments, match="writes began"):
                run_external_blocked(ds, b, io_block_elems=s, resume=True)

    @pytest.mark.parametrize("failing_read", [1, 2])
    def test_failed_read_in_first_stage_task_resumable(self, tmp_path,
                                                       failing_read):
        # Either read of a stage pass's first pair comes before its first
        # write, so the pass is still unflagged and reruns exactly.
        n, b, s = 12, 8, 1 << 4
        path, data = make_dataset(tmp_path, n, seed=79)
        reference = data.copy()
        fwht_array(reference)
        with dataset.open_validated(path) as ds:
            fail_after_reads(
                ds, (1 << (n - b)) + (1 << n) // s + failing_read - 1,
                lambda d: run_external_blocked(d, b, io_block_elems=s))
            assert ds.progress_marker["passes_done"] == 2
            assert ds.progress_marker["writing"] is False
            run_external_blocked(ds, b, io_block_elems=s, resume=True)
        assert dataset.read_signal(path)[0].tobytes() == reference.tobytes()

    def test_first_read_failure_leaves_no_marker(self, tmp_path):
        # Nothing was written, so there is nothing to resume: the sidecar
        # stays as it was and a plain rerun finishes the transform.
        n, b, s = 10, 8, 1 << 4
        path, data = make_dataset(tmp_path, n, seed=37)
        reference = data.copy()
        fwht_array(reference)
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        with dataset.open_validated(path) as ds:
            def hook(op, start, count):
                raise IoFailure(f"injected {op} failure")

            ds.fault_hook = hook
            with pytest.raises(IoFailure, match="injected read"):
                run_external_blocked(ds, b, io_block_elems=s)
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker is None
            run_external_blocked(ds, b, io_block_elems=s)
        assert dataset.read_signal(path)[0].tobytes() == reference.tobytes()

    def test_no_write_marks_transformed_payload_time(self, tmp_path, monkeypatch):
        # Once a pass has begun writing, the payload is no longer the
        # time-domain signal: no sidecar may say "time" without a marker.
        written = []
        real_write = dataset._write_sidecar

        def record(p, meta):
            written.append(json.loads(json.dumps(meta)))
            real_write(p, meta)

        monkeypatch.setattr(dataset, "_write_sidecar", record)
        path, _ = make_dataset(tmp_path, 10)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, 8, io_block_elems=1 << 4)
        first = next(i for i, m in enumerate(written)
                     if m.get("pass_progress", {}).get("writing"))
        for meta in written[first:]:
            assert "pass_progress" in meta or meta["domain"] == "walsh", meta
        assert written[-1]["domain"] == "walsh"
        assert "pass_progress" not in written[-1]

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


class TestInterruptedReaders:
    """A dataset left between passes is neither signal nor spectrum:
    ``DatasetFile.domain`` refuses it, so every library reader does."""

    @pytest.fixture(params=[False, True], ids=["between-passes", "writing"])
    def interrupted(self, request, tmp_path):
        # Killed in pass 1 of n = 12, B = 8, S = 16: on the pass's first
        # read, or on its first write once the "writing" flag is set.
        n, b, s = 12, 8, 1 << 4
        path, _ = make_dataset(tmp_path, n, seed=83)
        op = "write" if request.param else "read"
        with dataset.open_validated(path) as ds:
            count = {"n": 0}

            def hook(hook_op, start, elems):
                count["n"] += hook_op == op
                if count["n"] > 1 << (n - b):  # pass 0's superblocks
                    raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, b, io_block_elems=s)
            ds.fault_hook = None
            assert ds.progress_marker["passes_done"] == 1
            assert ds.progress_marker["writing"] is request.param
        hint = "Rebuild" if request.param else "--resume"
        return path, hint

    @pytest.mark.parametrize("reader", [
        lambda ds: subspace.fold_dataset(
            ds, subspace.random_full_rank(12, 4, 0)),
        lambda ds: extract_above_dataset(ds, 1),
    ], ids=["fold_dataset", "extract_above_dataset"])
    def test_streaming_readers_refuse(self, interrupted, reader):
        path, hint = interrupted
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        with dataset.open_validated(path) as ds:
            with pytest.raises(BadArguments, match=hint):
                reader(ds)
            assert ds.stats.reads == 0
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar

    def test_read_signal_refuses_before_reading(self, interrupted,
                                                monkeypatch):
        path, hint = interrupted
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        reads = []
        real_preadv = os.preadv

        def preadv(*args):
            reads.append(args[2])
            return real_preadv(*args)

        monkeypatch.setattr(os, "preadv", preadv)
        with pytest.raises(BadArguments, match=hint):
            dataset.read_signal(path)
        assert reads == []
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar


def fail_after_reads(ds, allowed, transform):
    """Run ``transform(ds)`` with every read after the first ``allowed``
    failing; the reads of pass 0 and of one stage pass are 2**(n-B) and
    2**n / S."""
    state = {"reads": 0}

    def hook(op, start, count):
        if op == "read":
            state["reads"] += 1
            if state["reads"] > allowed:
                raise IoFailure("injected kill")

    ds.fault_hook = hook
    try:
        with pytest.raises(IoFailure):
            transform(ds)
    finally:
        ds.fault_hook = None


class TestMarkerCompatibility:
    """Markers that also carry a ``mode`` label, as earlier releases wrote
    them, still resume: S alone decides entry-wise against blocked."""

    @pytest.mark.parametrize("mode, s", [("entrywise", 1), ("blocked", 1),
                                         ("blocked", 1 << 4)])
    def test_labelled_marker_resumes(self, tmp_path, mode, s):
        n, b, done = 12, 8, 2
        path, data = make_dataset(tmp_path, n, seed=61)
        reference = data.copy()
        fwht_array(reference)
        with dataset.open_validated(path) as ds:
            fail_after_reads(ds, (1 << (n - b)) + (done - 1) * ((1 << n) // s),
                             lambda d: run_external_blocked(d, b, io_block_elems=s))
            marker = {"mem_log2": b, "io_block_elems": s, "passes_done": done,
                      "total_passes": n - b + 1, "writing": False}
            assert ds.progress_marker == marker
            ds.set_progress_marker({"mode": mode, **marker})
        with dataset.open_validated(path) as ds:
            report = run_external_blocked(ds, b, io_block_elems=s, resume=True)
        assert report.resumed_from == done
        got, _, domain = dataset.read_signal(path)
        assert got.tobytes() == reference.tobytes()
        assert domain == "walsh"
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker is None

    @pytest.mark.parametrize("mode, s", [("entrywise", 1), ("blocked", 1 << 4)])
    def test_finished_marker_with_n_below_budget(self, tmp_path, mode, s):
        # n < B: the marker keeps the requested B. Every pass is done, and
        # only the clearing sidecar write is left; resume makes it.
        n, b = 6, 8
        data = random_data(n, np.int64, seed=67)
        transformed = data.copy()
        fwht_array(transformed)
        path, _ = make_dataset(tmp_path, n, data=transformed)
        with dataset.open_validated(path) as ds:
            ds.set_progress_marker({"mode": mode, "mem_log2": b,
                                    "io_block_elems": s, "passes_done": 1,
                                    "total_passes": 1, "writing": False})
        with dataset.open_validated(path) as ds:
            report = run_external_blocked(ds, b, io_block_elems=s, resume=True)
        assert report.passes_executed == []
        assert report.resumed_from == 1
        got, _, domain = dataset.read_signal(path)
        assert got.tobytes() == transformed.tobytes()
        assert domain == "walsh"
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker is None

    def test_entrywise_run_resumes_as_blocked_s1(self, tmp_path):
        n, b = 10, 8
        path, data = make_dataset(tmp_path, n, seed=71)
        reference = data.copy()
        fwht_array(reference)
        with dataset.open_validated(path) as ds:
            fail_after_reads(ds, (1 << (n - b)) + (1 << n),  # through pass 1
                             lambda d: run_external_entrywise(d, b))
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["passes_done"] == 2
            report = run_external_blocked(ds, b, io_block_elems=1, resume=True)
        assert report.resumed_from == 2
        assert dataset.read_signal(path)[0].tobytes() == reference.tobytes()


def random_data(n, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == np.int64:
        return rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
    return rng.normal(size=1 << n)


class TestThreadedPassZero:
    """Pass 0 runs each superblock on 2**p threads, p = floor(log2 CPUs)
    capped at B - 1; the bytes and the I/O sequence must not change."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("n, b, s", [(12, 8, 1 << 4), (18, 17, 1 << 16),
                                         (6, 1, 1)])
    def test_byte_identical(self, tmp_path, monkeypatch, cpus, dtype, n, b, s):
        set_cpus(monkeypatch, cpus)
        plans = []
        real_run_plan = external.run_plan

        def spy(buf, plan, pool, *args, **kwargs):
            plans.append(plan.log2_dim - plan.block_log2)
            real_run_plan(buf, plan, pool, *args, **kwargs)

        monkeypatch.setattr(external, "run_plan", spy)
        data = random_data(n, dtype, seed=n + b)
        path, _ = make_dataset(tmp_path, n, data=data)
        expected = data.copy()
        fwht_array(expected)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, b, io_block_elems=s)
        got, _, _ = dataset.read_signal(path)
        assert got.tobytes() == expected.tobytes()
        p = min(cpus.bit_length() - 1, b - 1)
        assert plans == [p] * (1 << (n - b))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bound_checked_per_chunk_through_parallel(self, tmp_path,
                                                      monkeypatch, cpus):
        # Pass 0's bound check is run_plan's call of
        # parallel.check_magnitude_bound, once per chunk of each
        # superblock, for the whole 2**n transform.
        set_cpus(monkeypatch, cpus)
        calls = []
        real_check = parallel.check_magnitude_bound

        def counting(data, log2_dim):
            calls.append(log2_dim)
            real_check(data, log2_dim)

        monkeypatch.setattr(parallel, "check_magnitude_bound", counting)
        path, _ = make_dataset(tmp_path, 12)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, 8, io_block_elems=1 << 4)
        p = cpus.bit_length() - 1
        assert calls == [12] * (16 << p)

    def test_io_sequence_unchanged(self, tmp_path, monkeypatch):
        n, b = 12, 8
        sequences = []
        for cpus in (1, 4):
            set_cpus(monkeypatch, cpus)
            path, _ = make_dataset(tmp_path, n, seed=3, name=f"c{cpus}.bin")
            ops = []
            with dataset.open_validated(path) as ds:
                ds.fault_hook = lambda op, start, count: ops.append((op, start, count))
                run_external_blocked(ds, b, io_block_elems=1 << 4)
            sequences.append(ops)
        pass0 = []
        for start in range(0, 1 << n, 1 << b):
            pass0 += [("read", start, 1 << b), ("write", start, 1 << b)]
        assert sequences[1][: len(pass0)] == pass0
        assert sequences[0] == sequences[1]

    def test_usable_cpus(self, monkeypatch):
        from bigwht.parallel import usable_cpus
        set_cpus(monkeypatch, 4)
        assert usable_cpus() == 4
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert usable_cpus() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestOneRowTransform:
    def test_every_stage_loop_runs_it(self, tmp_path, monkeypatch):
        # The kernel's stages above the tile, the thread schedule's stage
        # steps and the disk stage passes all run core.rows_transform,
        # each through its own module's binding; one CPU keeps pass 0 to
        # a single chunk, so the disk run records its stage passes only.
        set_cpus(monkeypatch, 1)
        calls = []
        original = core.rows_transform
        for module in (core, parallel, external):
            def recording(rows, *scratch, name=module.__name__):
                calls.append((name, len(rows), len(rows[0])))
                original(rows, *scratch)

            monkeypatch.setattr(module, "rows_transform", recording)

        fwht_array(np.zeros(1 << 18, dtype=np.int64))
        assert calls == [("bigwht.core", 4, TILE_ELEMS)]
        calls.clear()
        run_parallel(Signal(np.zeros(1 << 12, dtype=np.int64)),
                     plan_parallel(12, 1))
        # Stage 11 as one task per worker, on a pair of 2**10-element runs.
        assert calls == [("bigwht.parallel", 2, 1 << 10)] * 2
        calls.clear()
        path, data = make_dataset(tmp_path, 12)
        with dataset.open_validated(path) as ds:
            run_external_blocked(ds, 8)
            got = ds.read_block(0, 1 << 12)
        # Stages 8 .. 11, 16 pairs of 2**7-element runs each.
        assert calls == [("bigwht.external", 2, 1 << 7)] * 64
        fwht_array(data)
        assert got.tobytes() == data.tobytes()


class TestMemoryBudget:
    """Pass 0 holds one 2**B superblock plus a tile of kernel scratch per
    worker; a stage pass holds two S-element runs plus half a tile of
    butterfly scratch. Measured with tracemalloc around one pass of the
    executor at n = 20, B = 18 on two CPUs, with 64 KiB of slack for
    small objects."""

    N, B = 20, 18
    SLACK = 64 << 10

    @pytest.fixture
    def ds(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        path, _ = make_dataset(tmp_path, self.N, seed=53)
        with dataset.open_validated(path) as handle:
            yield handle

    def peak_bytes(self, ds, s, index):
        """Peak traced bytes of running step ``index`` as one disk pass."""
        plan = plan_external(self.N, self.B, s)
        step = list(plan.steps())[index]
        marker = {"passes_done": index, "writing": True}
        tracemalloc.start()
        try:
            external._run_pass(ds, plan, step, marker)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("s", [1 << 4, 1 << 17])
    def test_pass_zero(self, ds, s):
        peak = self.peak_bytes(ds, s, 0)
        assert peak <= 8 * (1 << self.B) + 2 * (512 << 10) + self.SLACK

    @pytest.mark.parametrize("s", [1 << 4, 1 << 17])
    def test_stage_pass(self, ds, s):
        peak = self.peak_bytes(ds, s, 1)
        assert peak <= 2 * 8 * s + (256 << 10) + self.SLACK


class TestSyncBehind:
    """The engine under dataset's background writeback syncs."""

    @pytest.fixture(autouse=True)
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(dataset, "SYNC_BEHIND_BYTES", 1024)

    def test_failed_sync_fails_the_pass(self, tmp_path, monkeypatch):
        def fdatasync(fd):
            raise OSError(errno.EIO, "injected writeback error")

        path, _ = make_dataset(tmp_path, 12)
        monkeypatch.setattr(os, "fdatasync", fdatasync)
        with dataset.open_validated(path) as ds:
            with pytest.raises(IoFailure, match="fdatasync"):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["passes_done"] == 0
            assert ds.progress_marker["writing"] is True
            with pytest.raises(BadArguments, match="writes began"):
                run_external_blocked(ds, 8, io_block_elems=1 << 4, resume=True)

    def test_fault_hook_on_callers_thread(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        sync_threads = []
        real = os.fdatasync

        def fdatasync(fd):
            sync_threads.append(threading.get_ident())
            real(fd)

        path, data = make_dataset(tmp_path, 12)
        monkeypatch.setattr(os, "fdatasync", fdatasync)
        hook_threads = set()
        with dataset.open_validated(path) as ds:
            ds.fault_hook = lambda op, start, count: hook_threads.add(
                threading.get_ident())
            run_external_blocked(ds, 8, io_block_elems=1 << 4)
        assert hook_threads == {threading.get_ident()}
        assert sync_threads and threading.get_ident() not in sync_threads
        expected = data.copy()
        fwht_array(expected)
        assert np.array_equal(dataset.read_signal(path)[0], expected)


class TestOverflowGuard:
    def test_overflow_detected_in_initial_pass(self, tmp_path):
        n = 10
        data = np.full(1 << n, 1 << 53, dtype=np.int64)
        path, _ = make_dataset(tmp_path, n, data=data)
        with dataset.open_validated(path) as ds:
            with pytest.raises(OverflowBoundError):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_overflow_in_later_superblock_undone(self, tmp_path, monkeypatch,
                                                 cpus):
        # Superblocks 0 and 1 are transformed and written before the bound
        # check meets 2**60 in superblock 2; undoing them restores the bytes.
        set_cpus(monkeypatch, cpus)
        n, b = 10, 8
        data = random_data(n, np.int64, seed=43)
        data[600] = 1 << 60
        path, _ = make_dataset(tmp_path, n, data=data)
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_bytes()
        ops = []
        with dataset.open_validated(path) as ds:
            ds.fault_hook = lambda op, start, count: ops.append((op, start))
            with pytest.raises(OverflowBoundError):
                run_external_blocked(ds, b, io_block_elems=1 << 4)
        assert ops == [("read", 0), ("write", 0), ("read", 256), ("write", 256),
                       ("read", 512),
                       ("read", 0), ("write", 0), ("read", 256), ("write", 256)]
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_bytes() == sidecar

    def test_kill_during_undo_refused(self, tmp_path):
        n, b = 10, 8
        data = random_data(n, np.int64, seed=47)
        data[600] = 1 << 60
        path, _ = make_dataset(tmp_path, n, data=data)
        with dataset.open_validated(path) as ds:
            writes = {"n": 0}

            def hook(op, start, count):
                writes["n"] += op == "write"
                if writes["n"] == 3:  # the undo's first write
                    raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, b, io_block_elems=1 << 4)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["writing"] is True
            with pytest.raises(BadArguments, match="Rebuild"):
                run_external_blocked(ds, b, io_block_elems=1 << 4)
