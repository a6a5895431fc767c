"""Dataset format tests: exact sizes, byte-exact round trips, metadata
consistency, and the error surface."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.errors import (
    BadArguments,
    BadMetadata,
    DirectIoUnsupported,
    IoFailure,
    OutOfBounds,
    PathExists,
    SizeMismatch,
)


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "data.bin")


class TestCreate:
    def test_exact_size_int64(self, path):
        ds = dataset.create(path, 10, "int64")
        ds.close()
        assert os.path.getsize(path) == 8192
        assert os.path.exists(dataset.sidecar_path(path))

    def test_n0_float(self, path):
        ds = dataset.create(path, 0, "float64")
        ds.close()
        assert os.path.getsize(path) == 8

    def test_existing_path_refused(self, path):
        dataset.create(path, 4, "int64").close()
        with pytest.raises(PathExists):
            dataset.create(path, 4, "int64")

    def test_bad_kind(self, path):
        with pytest.raises(BadArguments):
            dataset.create(path, 4, "int32")

    def test_sidecar_contents(self, path):
        dataset.create(path, 6, "float64", domain="walsh").close()
        meta = json.loads(Path(dataset.sidecar_path(path)).read_text())
        assert meta == {
            "format_version": 1,
            "log2_dim": 6,
            "element_kind": "float64",
            "domain": "walsh",
        }


class TestBlockIo:
    def test_round_trip(self, path):
        with dataset.create(path, 4, "int64") as ds:
            ds.write_block(2, np.array([5, -3], dtype=np.int64))
            assert ds.read_block(2, 2).tolist() == [5, -3]

    def test_out_of_bounds(self, path):
        with dataset.create(path, 4, "int64") as ds:
            with pytest.raises(OutOfBounds):
                ds.read_block(15, 2)
            with pytest.raises(OutOfBounds):
                ds.read_block(0, 17)
            with pytest.raises(OutOfBounds):
                ds.write_block(16, np.array([1], dtype=np.int64))
            with pytest.raises(OutOfBounds):
                ds.read_block(0, 0)

    def test_chunking_equivalence(self, path):
        rng = np.random.default_rng(1)
        data = rng.integers(-(1 << 40), 1 << 40, 1024).astype(np.int64)
        with dataset.create(path, 10, "int64") as ds:
            ds.write_block(0, data)
            whole = ds.read_block(0, 1024)
            single = np.array([ds.read_block(i, 1)[0] for i in range(1024)])
        assert np.array_equal(whole, data)
        assert np.array_equal(single, data)

    def test_arbitrary_partition_round_trip(self, path):
        rng = np.random.default_rng(2)
        n = 8
        data = rng.integers(-999, 999, 1 << n).astype(np.int64)
        cuts = sorted(rng.choice(np.arange(1, 1 << n), 9, replace=False).tolist())
        bounds = [0] + cuts + [1 << n]
        blocks = list(zip(bounds[:-1], bounds[1:]))
        rng.shuffle(blocks)
        with dataset.create(path, n, "int64") as ds:
            for lo, hi in blocks:
                ds.write_block(lo, data[lo:hi])
            assert np.array_equal(ds.read_block(0, 1 << n), data)

    def test_element_access(self, path):
        with dataset.create(path, 3, "int64") as ds:
            ds.write_block(5, np.array([-(1 << 60)], dtype=np.int64))
            assert ds.read_block(5, 1)[0] == -(1 << 60)
            assert ds.read_block(4, 3).tolist() == [0, -(1 << 60), 0]
        os.unlink(path)
        os.unlink(dataset.sidecar_path(path))
        with dataset.create(path, 3, "float64") as ds:
            ds.write_block(2, np.array([3.25]))
            assert ds.read_block(2, 1)[0] == 3.25

    @pytest.mark.parametrize("kind", ["int64", "float64"])
    def test_read_returns_canonical_dtype(self, path, kind):
        # np.add.at in fold_dataset stays on its fast path only when the
        # block's descriptor is the canonical native one.
        with dataset.create(path, 3, kind) as ds:
            assert ds.read_block(0, 8).dtype is np.dtype(kind)

    def test_non_contiguous_write(self, path):
        data = np.arange(32, dtype=np.int64)
        with dataset.create(path, 4, "int64") as ds:
            ds.write_block(0, data[::2])
            assert np.array_equal(ds.read_block(0, 16), data[::2])

    def test_little_endian_on_disk(self, path):
        with dataset.create(path, 1, "int64") as ds:
            ds.write_block(0, np.array([1, 256], dtype=np.int64))
        raw = Path(path).read_bytes()
        assert raw == bytes([1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0])

    def test_dtype_mismatch_rejected(self, path):
        with dataset.create(path, 2, "int64") as ds:
            with pytest.raises(BadArguments):
                ds.write_block(0, np.array([1.5], dtype=np.float64))

    def test_stats_counters(self, path):
        with dataset.create(path, 4, "int64") as ds:
            ds.write_block(0, np.zeros(16, dtype=np.int64))
            ds.read_block(0, 4)
            ds.read_block(0, 1)
            assert ds.stats.elements_written == 16
            assert ds.stats.elements_read == 5
            assert ds.stats.writes == 1
            assert ds.stats.reads == 2


def _trickle(call, limit):
    """os.preadv/os.pwritev stand-in that moves at most ``limit`` bytes."""

    def partial(fd, buffers, offset):
        return call(fd, [buffers[0][:limit]], offset)

    return partial


class TestTransferLoop:
    def test_partial_transfers_resume(self, path, monkeypatch):
        rng = np.random.default_rng(5)
        data = rng.integers(-(1 << 62), 1 << 62, 1 << 10).astype(np.int64)
        monkeypatch.setattr(os, "preadv", _trickle(os.preadv, 3))
        monkeypatch.setattr(os, "pwritev", _trickle(os.pwritev, 3))
        with dataset.create(path, 10, "int64") as ds:
            ds.write_block(0, data)
            assert np.array_equal(ds.read_block(0, 1 << 10), data)

    @pytest.mark.parametrize("name", ["preadv", "pwritev"])
    def test_zero_progress_names_offset(self, path, monkeypatch, name):
        with dataset.create(path, 4, "int64") as ds:
            monkeypatch.setattr(os, name, _trickle(getattr(os, name), 0))
            with pytest.raises(IoFailure, match="at byte 32"):
                if name == "preadv":
                    ds.read_block(4, 2)
                else:
                    ds.write_block(4, np.ones(2, dtype=np.int64))


class TestOpenValidated:
    def test_valid_pair(self, path):
        dataset.create(path, 5, "int64").close()
        with dataset.open_validated(path) as ds:
            assert ds.log2_dim == 5
            assert ds.element_kind == "int64"
            assert ds.domain == "time"

    def test_truncated_payload(self, path):
        dataset.create(path, 5, "int64").close()
        with open(path, "r+b") as f:
            f.truncate(100)
        with pytest.raises(SizeMismatch):
            dataset.open_validated(path)

    def test_oversized_payload(self, path):
        dataset.create(path, 10, "int64").close()
        with open(path, "r+b") as f:
            f.truncate(8200)
        with pytest.raises(SizeMismatch):
            dataset.open_validated(path)

    def test_missing_sidecar(self, path):
        with open(path, "wb") as f:
            f.truncate(8)
        with pytest.raises(BadMetadata):
            dataset.open_validated(path)

    def test_malformed_sidecar(self, path):
        dataset.create(path, 3, "int64").close()
        with open(dataset.sidecar_path(path), "w") as f:
            f.write("{not json")
        with pytest.raises(BadMetadata):
            dataset.open_validated(path)

    def test_bad_fields(self, path):
        dataset.create(path, 3, "int64").close()
        sidecar = Path(dataset.sidecar_path(path))
        meta = json.loads(sidecar.read_text())
        meta["element_kind"] = "int16"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(BadMetadata):
            dataset.open_validated(path)

    def test_missing_payload(self, path):
        dataset.create(path, 3, "int64").close()
        os.unlink(path)
        with pytest.raises(SizeMismatch):
            dataset.open_validated(path)


class TestMetadataUpdates:
    def test_domain_update_persists(self, path):
        dataset.create(path, 3, "int64").close()
        with dataset.open_validated(path) as ds:
            ds.set_domain("walsh")
        with dataset.open_validated(path) as ds:
            assert ds.domain == "walsh"

    def test_sidecar_rename_synced(self, path, monkeypatch):
        dataset.create(path, 3, "int64").close()
        parent = os.stat(os.path.dirname(path))
        events = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            events.append("replace")

        def fsync(fd):
            is_parent = os.path.samestat(os.fstat(fd), parent)
            events.append("fsync dir" if is_parent else "fsync file")
            real_fsync(fd)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        with dataset.open_validated(path) as ds:
            ds.set_progress_marker({"mode": "blocked", "passes_done": 1})
        assert events == ["fsync file", "replace", "fsync dir"]

    def test_progress_marker_round_trip(self, path):
        dataset.create(path, 3, "int64").close()
        marker = {"mode": "blocked", "passes_done": 2}
        with dataset.open_validated(path) as ds:
            ds.set_progress_marker(marker)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker == marker
            ds.set_progress_marker(None)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker is None


class TestHelpers:
    def test_write_read_signal(self, path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=64)
        dataset.write_signal(path, data, domain="walsh")
        arr, kind, domain = dataset.read_signal(path)
        assert kind == "float64"
        assert domain == "walsh"
        assert np.array_equal(arr, data)

    def test_fault_hook_fires(self, path):
        with dataset.create(path, 4, "int64") as ds:
            calls = []

            def hook(op, start, count):
                calls.append((op, start, count))
                if len(calls) > 1:
                    raise IoFailure("injected")

            ds.fault_hook = hook
            ds.read_block(0, 4)
            with pytest.raises(IoFailure):
                ds.read_block(4, 4)
            assert calls == [("read", 0, 4), ("read", 4, 4)]


def _direct_round_trip(tmp_path, n):
    path = str(tmp_path / "direct.bin")
    rng = np.random.default_rng(4)
    data = rng.integers(-99, 99, 1 << n).astype(np.int64)
    dataset.write_signal(path, data)
    try:
        ds = dataset.open_validated(path, direct=True)
    except DirectIoUnsupported:
        pytest.skip("direct I/O unsupported on this filesystem")
    with ds:
        got = ds.read_block(0, 1 << n)
        assert np.array_equal(got, data)
        ds.write_block(0, data * 2)
    arr, _, _ = dataset.read_signal(path)
    assert np.array_equal(arr, data * 2)


class TestDirectIo:
    def test_aligned_round_trip(self, tmp_path):
        _direct_round_trip(tmp_path, 10)

    def test_round_trip_crosses_bounce_buffer(self, tmp_path):
        # 2**18 elements are 2 MiB, two fills of the 1 MiB bounce buffer.
        _direct_round_trip(tmp_path, 18)

    def test_misaligned_rejected(self, tmp_path):
        path = str(tmp_path / "direct2.bin")
        dataset.write_signal(path, np.zeros(1 << 10, dtype=np.int64))
        try:
            ds = dataset.open_validated(path, direct=True)
        except Exception:
            pytest.skip("direct I/O unsupported on this filesystem")
        with ds:
            with pytest.raises(BadArguments):
                ds.read_block(1, 4)

    def test_alignment_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(dataset.ALIGN_ENV, "8192")
        assert dataset.io_alignment() == 8192
        monkeypatch.setenv(dataset.ALIGN_ENV, "100")
        with pytest.raises(BadMetadata):
            dataset.io_alignment()
