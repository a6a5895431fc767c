"""Linear space reduction tests: full-rank sampling, the fold/transform
commutation identity (checked against the transform itself), and the
fleet-coverage simulation."""

import threading
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.core import Domain, Signal, fwht_inplace
from bigwht.errors import (
    BadArguments,
    BadDims,
    BadMetadata,
    DimMismatch,
    IoFailure,
)
from bigwht.subspace import (
    LinearMap,
    apply_map,
    coverage_model,
    coverage_simulate,
    fold,
    fold_dataset,
    folded_coefficient_index,
    gf2_rank,
    image_table,
    load_map,
    random_full_rank,
    row_space,
    save_map,
)

from conftest import set_cpus


class TestRank:
    def test_identity(self):
        assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5

    def test_dependent_rows(self):
        m = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.uint8)
        assert gf2_rank(m) == 2  # row2 = row0 ^ row1

    def test_zero(self):
        assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0


class TestRandomFullRank:
    def test_square_invertible(self):
        lmap = random_full_rank(5, 5, seed=1)
        assert gf2_rank(lmap.rows) == 5

    def test_rank_one_never_zero_row(self):
        for seed in range(30):
            lmap = random_full_rank(2, 1, seed=seed)
            assert lmap.rows.any()
            assert tuple(lmap.rows[0].tolist()) in {(0, 1), (1, 0), (1, 1)}

    def test_full_rank_over_many_seeds(self):
        for seed in range(100):
            assert gf2_rank(random_full_rank(12, 8, seed=seed).rows) == 8

    def test_deterministic(self):
        a = random_full_rank(10, 6, seed=77)
        b = random_full_rank(10, 6, seed=77)
        assert np.array_equal(a.rows, b.rows)

    def test_bad_dims(self):
        with pytest.raises(BadDims):
            random_full_rank(3, 4, seed=0)
        with pytest.raises(BadDims):
            random_full_rank(3, 0, seed=0)

    def test_rank_deficient_matrix_rejected(self):
        with pytest.raises(BadDims):
            LinearMap(np.zeros((2, 3), dtype=np.uint8))


class TestFold:
    def test_select_bit_zero(self):
        # Kernel is bit 1, so preimages pair j with j ^ 2.
        lmap = LinearMap(np.array([[1, 0]], dtype=np.uint8))
        sig = Signal(np.array([1, 2, 3, 4], dtype=np.int64))
        assert fold(sig, lmap).data.tolist() == [4, 6]

    def test_square_map_permutes(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-50, 50, 16).astype(np.int64)
        lmap = random_full_rank(4, 4, seed=9)
        folded = fold(Signal(x.copy()), lmap)
        assert sorted(folded.data.tolist()) == sorted(x.tolist())

    def test_mass_conserved_exactly(self):
        rng = np.random.default_rng(6)
        x = rng.integers(-(1 << 30), 1 << 30, 1 << 10).astype(np.int64)
        lmap = random_full_rank(10, 6, seed=10)
        folded = fold(Signal(x.copy()), lmap)
        assert int(folded.data.sum()) == int(x.sum())

    def test_dim_mismatch(self):
        lmap = random_full_rank(5, 3, seed=0)
        with pytest.raises(DimMismatch):
            fold(Signal(np.zeros(8, dtype=np.int64)), lmap)

    def test_requires_time_domain(self):
        lmap = random_full_rank(3, 2, seed=0)
        with pytest.raises(BadArguments):
            fold(Signal(np.zeros(8, dtype=np.int64), Domain.WALSH), lmap)

    def test_streaming_matches_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", 32)
        rng = np.random.default_rng(7)
        x = rng.integers(-99, 99, 1 << 9).astype(np.int64)
        lmap = random_full_rank(9, 5, seed=11)
        path = str(tmp_path / "src.bin")
        dataset.write_signal(path, x)
        with dataset.open_validated(path) as ds:
            streamed = fold_dataset(ds, lmap)
        assert np.array_equal(streamed, fold(Signal(x), lmap).data)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("block", [1, 32, 1 << 9, 1 << 11])
    def test_streaming_block_sizes(self, tmp_path, monkeypatch, dtype, block):
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", block)
        rng = np.random.default_rng(8)
        x = rng.integers(-99, 99, 1 << 9).astype(dtype)
        lmap = random_full_rank(9, 5, seed=12)
        reference = np.zeros(1 << 5, dtype=dtype)
        for j, value in enumerate(x.tolist()):  # preimage sums, index order
            reference[apply_map(lmap, j)] += value
        path = str(tmp_path / "src.bin")
        dataset.write_signal(path, x)
        with dataset.open_validated(path) as ds:
            streamed = fold_dataset(ds, lmap)
        assert streamed.dtype == dtype
        assert np.array_equal(streamed, reference)
        assert np.array_equal(streamed, fold(Signal(x), lmap).data)

    def test_image_table_matches_apply_map(self):
        lmap = random_full_rank(10, 4, seed=14)
        table = image_table(lmap, 10)
        assert table.tolist() == [apply_map(lmap, j) for j in range(1 << 10)]
        assert np.array_equal(image_table(lmap, 6), table[: 1 << 6])


class TestParallelFold:
    """fold_dataset at n = 18 on 1, 2 and 4 workers. With the default
    block of 2**16, d_out = 5 and 12 fold through block partials and
    d_out = 15 adds each block straight into the result."""

    N = 18

    @pytest.fixture
    def int_path(self, tmp_path):
        rng = np.random.default_rng(30)
        # Wide values, so per-worker sums wrap in int64.
        x = rng.integers(-(1 << 62), 1 << 62, 1 << self.N, dtype=np.int64)
        path = str(tmp_path / "int.bin")
        dataset.write_signal(path, x)
        return path, x

    @staticmethod
    def index_order_fold(x, lmap):
        # Preimage sums in index order, wrapping like int64.
        table = image_table(lmap, lmap.d_in)
        out = np.zeros(1 << lmap.d_out, dtype=x.dtype)
        np.add.at(out, table, x)
        return out

    @pytest.mark.parametrize("d_out", [5, 12, 15])
    def test_int64_bytes_do_not_depend_on_cpus(self, int_path, monkeypatch,
                                               d_out):
        path, x = int_path
        lmap = random_full_rank(self.N, d_out, seed=31 + d_out)
        results = []
        for cpus in (1, 2, 4):
            set_cpus(monkeypatch, cpus)
            with dataset.open_validated(path) as ds:
                results.append(fold_dataset(ds, lmap).tobytes())
        expected = self.index_order_fold(x, lmap).tobytes()
        assert results == [expected] * 3
        assert fold(Signal(x), lmap).data.tobytes() == expected

    def test_float64_matches_fold_on_any_cpus(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(32)
        x = rng.normal(size=1 << self.N)
        path = str(tmp_path / "float.bin")
        dataset.write_signal(path, x)
        for d_out in (5, 15):
            lmap = random_full_rank(self.N, d_out, seed=33 + d_out)
            results = []
            for cpus in (1, 4):
                set_cpus(monkeypatch, cpus)
                with dataset.open_validated(path) as ds:
                    results.append(fold_dataset(ds, lmap).tobytes())
                results.append(fold(Signal(x), lmap).data.tobytes())
            assert len(set(results)) == 1, d_out
        # The documented order with partials (d_out = 5): index order
        # within each 2**16 block, then the blocks' sums in block order.
        lmap = random_full_rank(self.N, 5, seed=38)
        table = image_table(lmap, self.N)
        expected = np.zeros(1 << 5)
        for start in range(0, 1 << self.N, 1 << 16):
            partial = np.zeros(1 << 5)
            np.add.at(partial, table[start : start + (1 << 16)],
                      x[start : start + (1 << 16)])
            expected += partial
        assert fold(Signal(x), lmap).data.tobytes() == expected.tobytes()

    def test_worker_failure_surfaces(self, int_path, monkeypatch):
        set_cpus(monkeypatch, 4)
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", 1 << 14)
        path, _ = int_path
        lmap = random_full_rank(self.N, 12, seed=34)
        reads = []
        lock = threading.Lock()

        def hook(op, start, count):
            with lock:
                reads.append(start)
                if len(reads) == 3:
                    raise IoFailure("injected read failure")

        with dataset.open_validated(path) as ds:
            ds.fault_hook = hook
            with pytest.raises(IoFailure, match="injected"):
                fold_dataset(ds, lmap)

    def test_failure_stops_the_other_worker(self, int_path, monkeypatch):
        # 16 blocks on 2 workers: after the failing third read the other
        # worker may finish the read it has issued, and issues no more.
        workers = 2
        set_cpus(monkeypatch, workers)
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", 1 << 14)
        path, _ = int_path
        lmap = random_full_rank(self.N, 12, seed=36)
        reads = []
        lock = threading.Lock()

        def hook(op, start, count):
            with lock:
                reads.append(start)
                if len(reads) == 3:
                    raise IoFailure("injected read failure")

        with dataset.open_validated(path) as ds:
            ds.fault_hook = hook
            with pytest.raises(IoFailure, match="injected"):
                fold_dataset(ds, lmap)
        assert 3 <= len(reads) <= 3 + (workers - 1)

    def test_reads_every_element_once(self, int_path, monkeypatch):
        set_cpus(monkeypatch, 4)
        path, _ = int_path
        lmap = random_full_rank(self.N, 12, seed=35)
        with dataset.open_validated(path) as ds:
            fold_dataset(ds, lmap)
            assert ds.stats.elements_read == 1 << self.N
            assert ds.stats.reads == (1 << self.N) // (1 << 16)


class TestFoldedIndex:
    def test_select_bit_zero_indices(self):
        lmap = LinearMap(np.array([[1, 0]], dtype=np.uint8))
        assert folded_coefficient_index(lmap, 0) == 0
        assert folded_coefficient_index(lmap, 1) == 1

    def test_zero_maps_to_zero_for_any_map(self):
        for seed in range(10):
            lmap = random_full_rank(8, 4, seed=seed)
            assert folded_coefficient_index(lmap, 0) == 0

    def test_out_of_range(self):
        lmap = random_full_rank(4, 2, seed=0)
        with pytest.raises(BadDims):
            folded_coefficient_index(lmap, 4)

    def test_row_space_agrees(self):
        lmap = random_full_rank(10, 6, seed=3)
        space = row_space(lmap)
        for i in (0, 1, 17, 63):
            assert space[i] == folded_coefficient_index(lmap, i)


class TestCommutation:
    def test_folded_transform_is_gathered_transform(self):
        # WHT(fold(x, L))[i'] == WHT(x)[L^T i'] exactly, for random maps
        # and random int64 signals.
        rng = np.random.default_rng(20)
        for trial in range(100):
            d_in = int(rng.integers(2, 13))
            d_out = int(rng.integers(1, d_in + 1))
            lmap = random_full_rank(d_in, d_out, seed=int(rng.integers(1 << 30)))
            x = rng.integers(-1000, 1000, 1 << d_in).astype(np.int64)
            folded_walsh = fwht_inplace(fold(Signal(x.copy()), lmap)).data
            full_walsh = fwht_inplace(Signal(x.copy())).data
            assert np.array_equal(folded_walsh, full_walsh[row_space(lmap)]), (
                d_in, d_out, trial,
            )

    def test_single_bit_map_example(self):
        # d_in=2, L selects bit 0: folded spectrum is (y_0, y_1).
        lmap = LinearMap(np.array([[1, 0]], dtype=np.uint8))
        x = np.array([3, -1, 4, 7], dtype=np.int64)
        folded_walsh = fwht_inplace(fold(Signal(x.copy()), lmap)).data
        full_walsh = fwht_inplace(Signal(x.copy())).data
        assert folded_walsh.tolist() == [full_walsh[0], full_walsh[1]]


class TestCoverage:
    def test_scaled_down_fleet(self):
        result = coverage_simulate(16, 11, machines=64, trials=20, seed=5)
        assert result.mean == pytest.approx(0.869, abs=0.02)

    def test_single_machine_exact_fraction(self):
        result = coverage_simulate(16, 11, machines=1, trials=5, seed=6)
        expected = (2**11 - 1) / (2**16 - 1)
        assert result.mean == pytest.approx(expected, rel=1e-9)
        assert all(c == expected for c in result.per_trial)

    def test_no_reduction_full_coverage(self):
        result = coverage_simulate(10, 10, machines=1, trials=3, seed=7)
        assert result.mean == 1.0

    def test_monotone_in_machines_with_shared_seed(self):
        means = [
            coverage_simulate(12, 7, machines=p, trials=5, seed=8).mean
            for p in (1, 4, 16, 64)
        ]
        assert all(a <= b for a, b in zip(means, means[1:]))

    def test_model_prediction_field(self):
        result = coverage_simulate(12, 7, machines=4, trials=2, seed=9)
        assert result.model_prediction == pytest.approx(
            coverage_model(12, 7, 4), rel=1e-12
        )

    def test_sampled_mode_agrees_with_enumeration(self):
        exact = coverage_simulate(14, 9, machines=8, trials=6, seed=10)
        sampled = coverage_simulate(14, 9, machines=8, trials=6, seed=10,
                                    sample_count=4000)
        assert sampled.mean == pytest.approx(exact.mean, abs=0.03)

    def test_large_dims_require_sampling(self):
        with pytest.raises(BadDims):
            coverage_simulate(30, 25, machines=2, trials=1, seed=0)
        result = coverage_simulate(30, 25, machines=2, trials=2, seed=0,
                                   sample_count=500)
        assert 0.0 <= result.mean <= 1.0

    def test_bad_arguments(self):
        with pytest.raises(BadDims):
            coverage_simulate(8, 9, machines=1, trials=1)
        with pytest.raises(BadArguments):
            coverage_simulate(8, 4, machines=0, trials=1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_sample_count_below_one_refused(self, count):
        # No samples gave NaN coverage; a negative count, numpy's error.
        with pytest.raises(BadArguments, match="sample_count"):
            coverage_simulate(30, 2, 2, 1, sample_count=count)


@pytest.mark.parametrize("rows, match", [
    ([1, 0, 1], "2-D"),
    ([[1, 0], [0, 1], [1, 1]], "d_out <= d_in"),
    ([[1, 2]], "0 or 1"),
], ids=["1-d", "d_out>d_in", "entry-2"])
def test_linear_map_refusals(rows, match):
    with pytest.raises(BadDims, match=match):
        LinearMap(np.array(rows))


@pytest.mark.parametrize("domain, d_in, error, match", [
    ("walsh", 4, BadArguments, "not time-domain"),
    ("time", 5, DimMismatch, "d_in=5"),
], ids=["walsh-domain", "d_in-mismatch"])
def test_fold_dataset_refusals(tmp_path, domain, d_in, error, match):
    path = str(tmp_path / "in.bin")
    dataset.write_signal(path, np.arange(16, dtype=np.int64), domain=domain)
    with dataset.open_validated(path) as ds:
        with pytest.raises(error, match=match):
            fold_dataset(ds, random_full_rank(d_in, 2, seed=1))


class TestMapFiles:
    def test_save_load_round_trip(self, tmp_path):
        lmap = random_full_rank(10, 4, seed=12)
        path = str(tmp_path / "map.txt")
        save_map(lmap, path)
        loaded = load_map(path)
        assert np.array_equal(loaded.rows, lmap.rows)

    def test_text_layout(self, tmp_path):
        lmap = LinearMap(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
        path = str(tmp_path / "map.txt")
        save_map(lmap, path)
        assert Path(path).read_text() == "101\n011\n"

    def test_malformed_rejected(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write("10\n1\n")
        with pytest.raises(BadMetadata):
            load_map(path)
        with open(path, "w") as f:
            f.write("12\n")
        with pytest.raises(BadMetadata):
            load_map(path)

    @pytest.mark.parametrize("content, match", [
        (None, "cannot read"),
        ("\n  \n", "empty"),
    ], ids=["missing", "empty"])
    def test_unreadable_rejected(self, tmp_path, content, match):
        path = tmp_path / "map.txt"
        if content is not None:
            path.write_text(content)
        with pytest.raises(BadMetadata, match=match):
            load_map(str(path))
