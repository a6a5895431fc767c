"""Parallel schedule tests: literal agreement with the four-worker
reference schedule, provable disjointness, and exact serial equivalence."""

import numpy as np
import pytest

from bigwht.core import Domain, Signal, fwht_array, fwht_inplace
from bigwht.errors import InvalidWorkerCount, OverflowBoundError, ValidationError
from bigwht.parallel import (
    StagePlan,
    check_disjoint,
    plan_parallel,
    run_parallel,
    total_butterflies,
)


class TestPlan:
    def test_phase_structure(self):
        plan = plan_parallel(10, 3)
        assert plan.q == 4
        assert len(plan.chunks()) == 8
        assert list(plan.stages) == [7, 8, 9]
        for k in plan.stages:
            assert len(list(plan.runs(k))) == 8

    def test_four_worker_reference_tuples(self):
        # m = 4: stage n-2 starts at {0, 2^(n-3), 2^(n-1), 2^(n-1)+2^(n-3)}
        # with stride 2^(n-2); the last stage starts at i*2^(n-3) with
        # stride 2^(n-1); every workload runs 2^(n-3) butterflies.
        for n in (5, 10, 16):
            plan = plan_parallel(n, 2)
            first, last = plan.stages
            assert first == n - 2
            assert [(s, 1 << first) for s in plan.runs(first)] == [
                (0, 1 << (n - 2)),
                (1 << (n - 3), 1 << (n - 2)),
                (1 << (n - 1), 1 << (n - 2)),
                ((1 << (n - 1)) + (1 << (n - 3)), 1 << (n - 2)),
            ]
            assert plan.run_elems == 1 << (n - 3)
            assert last == n - 1
            assert [(s, 1 << last) for s in plan.runs(last)] == [
                (i << (n - 3), 1 << (n - 1)) for i in range(4)
            ]

    def test_n3_p1_by_hand(self):
        # Stage 2 pairs (pt, pt+4) for pt in 0..3; two workers split that
        # into runs starting at 0 and 2, two butterflies each.
        plan = plan_parallel(3, 1)
        assert plan.q == 2
        assert [(c, 1 << plan.block_log2) for c in plan.chunks()] == [(0, 4), (4, 4)]
        assert list(plan.stages) == [2]
        assert [(s, 1 << 2, plan.run_elems) for s in plan.runs(2)] == [
            (0, 4, 2), (2, 4, 2),
        ]

    def test_is_the_stage_plan_with_b_n_minus_p(self):
        for n in range(2, 16):
            for p in range(1, n):
                assert plan_parallel(n, p) == StagePlan(n, n - p, 1 << (n - 1 - p))

    def test_worker_count_validation(self):
        with pytest.raises(InvalidWorkerCount):
            plan_parallel(8, 0)
        with pytest.raises(InvalidWorkerCount):
            plan_parallel(8, 8)

    def test_disjointness_all_small_plans(self):
        for n in range(2, 17):
            for p in range(1, min(n, 4)):
                check_disjoint(plan_parallel(n, p))

    def test_checker_catches_overlap(self):
        # S = 3 is no power of two: stage 2's runs [0, 3) and [3, 6) pair
        # with [4, 7) and [7, 10), so the second task meets the first.
        with pytest.raises(ValidationError):
            check_disjoint(StagePlan(log2_dim=4, block_log2=2, run_elems=3))
        # S = 4 > 2**1: stage 1's runs [0, 4) and [4, 8) pair with [2, 6)
        # and [6, 10), past the end of the 8 elements.
        with pytest.raises(ValidationError):
            check_disjoint(StagePlan(log2_dim=3, block_log2=1, run_elems=4))

    @pytest.mark.parametrize("n, b, s", [(1, 1, 1), (6, 3, 1), (6, 3, 4),
                                         (10, 7, 1), (10, 7, 64), (12, 12, 8)])
    def test_steps_listed_then_consumed(self, n, b, s):
        # Each step's tasks keep their own stage even when all the steps
        # are listed before any task is consumed.
        plan = StagePlan(n, b, s)
        one_at_a_time = [(stages, length, list(tasks))
                         for stages, length, tasks in plan.steps()]
        listed = list(plan.steps())
        assert [(stages, length, list(tasks))
                for stages, length, tasks in listed] == one_at_a_time
        assert one_at_a_time[0] == (range(b), 1 << b,
                                    [(c,) for c in plan.chunks()])
        for k, (stages, length, tasks) in zip(plan.stages, one_at_a_time[1:]):
            assert (stages, length) == (range(k, k + 1), s)
            assert tasks == [(lo, lo + (1 << k)) for lo in plan.runs(k)]
        assert len(one_at_a_time) == plan.q

    def test_work_conservation(self):
        for n in range(2, 18):
            for p in range(1, min(n, 5)):
                assert total_butterflies(plan_parallel(n, p)) == n << (n - 1)


class TestRun:
    def test_matches_serial_ramp(self):
        sig = Signal(np.array([1, 2, 3, 4], dtype=np.int64))
        run_parallel(sig, plan_parallel(2, 1))
        assert sig.data.tolist() == [10, -2, -4, 0]

    def test_serial_equivalence_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n = int(rng.integers(4, 13))
            x = rng.integers(-(1 << 16), 1 << 16, 1 << n).astype(np.int64)
            expected = fwht_inplace(Signal(x.copy())).data
            for p in (1, 2, 3):
                got = run_parallel(Signal(x.copy()), plan_parallel(n, p))
                assert np.array_equal(got.data, expected), (n, p)

    def test_serial_equivalence_large(self):
        rng = np.random.default_rng(100)
        n = 16
        x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
        expected = fwht_inplace(Signal(x.copy())).data
        for p in (1, 2, 3):
            got = run_parallel(Signal(x.copy()), plan_parallel(n, p))
            assert np.array_equal(got.data, expected)

    def test_float_equivalence(self):
        rng = np.random.default_rng(101)
        n = 10
        x = rng.normal(size=1 << n)
        expected = fwht_inplace(Signal(x.copy())).data
        got = run_parallel(Signal(x.copy()), plan_parallel(n, 2))
        assert np.array_equal(got.data, expected)  # bit-identical, not approx

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("n", [15, 16, 17, 18])
    def test_tile_boundary_equivalence(self, n, dtype):
        rng = np.random.default_rng([102, n])
        if dtype == np.int64:
            x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
        else:
            x = rng.normal(size=1 << n)
        expected = x.copy()
        fwht_array(expected)
        for p in (1, 2):
            got = run_parallel(Signal(x.copy()), plan_parallel(n, p))
            assert got.data.tobytes() == expected.tobytes(), (n, p)

    @pytest.mark.parametrize("p", [1, 2])
    def test_bound_refused_in_last_tile_untouched(self, p):
        # run_plan checks every chunk before the chunk step, so a value at
        # the bound in the last tile of the last chunk is refused with the
        # buffer untouched; one notch below, the transform runs.
        n = 18
        rng = np.random.default_rng([104, p])
        x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
        x[-1] = -(1 << (63 - n))
        sig = Signal(x.copy())
        with pytest.raises(OverflowBoundError):
            run_parallel(sig, plan_parallel(n, p))
        assert sig.data.tobytes() == x.tobytes()
        assert sig.domain == Domain.TIME
        x[-1] += 1
        expected = x.copy()
        fwht_array(expected)
        got = run_parallel(Signal(x.copy()), plan_parallel(n, p))
        assert got.data.tobytes() == expected.tobytes()

    def test_barrier_count(self):
        phases_seen = []
        sig = Signal(np.arange(1 << 8, dtype=np.int64))
        run_parallel(sig, plan_parallel(8, 3),
                     on_phase_complete=phases_seen.append)
        assert phases_seen == [0, 1, 2, 3]

    def test_plan_signal_mismatch(self):
        from bigwht.errors import BadArguments
        with pytest.raises(BadArguments):
            run_parallel(Signal(np.zeros(8, dtype=np.int64)), plan_parallel(4, 1))

    def test_worker_failure_propagates(self, monkeypatch):
        import bigwht.parallel as par

        def explode(rows, *scratch):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(par, "rows_transform", explode)
        with pytest.raises(RuntimeError, match="injected"):
            run_parallel(Signal(np.zeros(64, dtype=np.int64)), plan_parallel(6, 2))
