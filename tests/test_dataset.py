"""Dataset format tests: exact sizes, byte-exact round trips, metadata
consistency, and the error surface."""

import errno
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.core import Domain
from bigwht.errors import (
    BadArguments,
    BadMetadata,
    IoFailure,
    OutOfBounds,
    PathExists,
    SizeMismatch,
)

from conftest import trickle


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


    def test_read_into_out(self, path):
        data = np.arange(16, dtype=np.int64) - 8
        ops = []
        with dataset.create(path, 4, "int64") as ds:
            ds.write_block(0, data)
            ds.fault_hook = lambda op, start, count: ops.append((op, start, count))
            buf = np.full(4, 99, dtype=np.int64)
            got = ds.read_block(8, 4, out=buf)
            assert got is buf
            assert buf.tolist() == data[8:12].tolist()
            assert ds.stats.reads == 1 and ds.stats.elements_read == 4
        assert ops == [("read", 8, 4)]

    @pytest.mark.parametrize("out", [
        np.empty(3, dtype=np.int64),  # wrong length
        np.empty(4, dtype=np.float64),  # wrong dtype
        np.empty(4, dtype=">i8"),  # wrong byte order
        np.empty(8, dtype=np.int64)[::2],  # not contiguous
        np.empty((2, 2), dtype=np.int64),  # not 1-D
        [0, 0, 0, 0],  # not an array
    ])
    def test_read_into_bad_out_rejected(self, path, out):
        with dataset.create(path, 4, "int64") as ds:
            with pytest.raises(BadArguments):
                ds.read_block(0, 4, out=out)
            with pytest.raises(OutOfBounds):  # bounds are checked first
                ds.read_block(14, 4, out=out)
            assert ds.stats.reads == 0

    def test_concurrent_reads_keep_every_count(self, path):
        # Eight readers on one handle with a short switch interval: an
        # unlocked += on the counters would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with dataset.create(path, 12, "int64") as ds:
                def reader(worker):
                    buf = np.empty(4, dtype=np.int64)
                    for start in range(worker * 4, 1 << 12, 8 * 4):
                        ds.read_block(start, 4, out=buf)

                threads = [threading.Thread(target=reader, args=(w,))
                           for w in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert ds.stats.snapshot() == (1 << 10, 0, 1 << 12, 0)
        finally:
            sys.setswitchinterval(interval)


class TestTransferLoop:
    def test_partial_transfers_resume(self, path, monkeypatch):
        rng = np.random.default_rng(5)
        data = rng.integers(-(1 << 62), 1 << 62, 1 << 10).astype(np.int64)
        monkeypatch.setattr(os, "preadv", trickle(os.preadv, 3))
        monkeypatch.setattr(os, "pwritev", trickle(os.pwritev, 3))
        with dataset.create(path, 10, "int64") as ds:
            ds.write_block(0, data)
            assert np.array_equal(ds.read_block(0, 1 << 10), data)

    @pytest.mark.parametrize("name", ["preadv", "pwritev"])
    def test_zero_progress_names_offset(self, path, monkeypatch, name):
        with dataset.create(path, 4, "int64") as ds:
            monkeypatch.setattr(os, name, trickle(getattr(os, name), 0))
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

    def test_bad_domain(self, path):
        dataset.create(path, 3, "int64").close()
        sidecar = Path(dataset.sidecar_path(path))
        meta = json.loads(sidecar.read_text())
        meta["domain"] = "frequency"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(BadMetadata, match="frequency"):
            dataset.open_validated(path)

    def test_missing_payload(self, path):
        dataset.create(path, 3, "int64").close()
        os.unlink(path)
        with pytest.raises(SizeMismatch):
            dataset.open_validated(path)

    @pytest.mark.parametrize("override, match", [
        (None, "not a JSON object"),
        ({"format_version": 2}, "format_version 2"),
        ({"format_version": None}, "format_version None"),
        ({"log2_dim": -1}, "log2_dim -1"),
        ({"log2_dim": "3"}, "log2_dim '3'"),
    ], ids=["list", "version-2", "no-version", "negative-n", "string-n"])
    def test_refused_sidecar(self, path, override, match):
        dataset.create(path, 3, "int64").close()
        sidecar = Path(dataset.sidecar_path(path))
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps(
            [meta] if override is None else {**meta, **override}))
        with pytest.raises(BadMetadata, match=match):
            dataset.open_validated(path)


class TestMetadataUpdates:
    def test_domain_update_persists(self, path):
        dataset.create(path, 3, "int64").close()
        with dataset.open_validated(path) as ds:
            ds.set_domain("walsh")
        with dataset.open_validated(path) as ds:
            assert ds.domain == "walsh"

    def test_domain_read_as_enum_written_as_string(self, path):
        dataset.create(path, 3, "int64").close()
        with dataset.open_validated(path) as ds:
            assert ds.domain is Domain.TIME
            ds.set_domain(Domain.WALSH)
        meta = json.loads(Path(dataset.sidecar_path(path)).read_text())
        assert type(meta["domain"]) is str and meta["domain"] == "walsh"
        with dataset.open_validated(path) as ds:
            assert ds.domain is Domain.WALSH

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


    def test_marker_and_domain_in_one_write(self, path, monkeypatch):
        dataset.create(path, 3, "int64").close()
        written = []
        real_write = dataset._write_sidecar

        def record(p, meta):
            written.append(dict(meta))
            real_write(p, meta)

        with dataset.open_validated(path) as ds:
            ds.set_progress_marker({"mode": "blocked", "passes_done": 1})
            monkeypatch.setattr(dataset, "_write_sidecar", record)
            with pytest.raises(BadArguments):
                ds.set_progress_marker(None, domain="frequency")
            ds.set_progress_marker(None, domain="walsh")
        assert written == [{"format_version": 1, "log2_dim": 3,
                            "element_kind": "int64", "domain": "walsh"}]
        with dataset.open_validated(path) as ds:
            assert ds.domain == "walsh"
            assert ds.progress_marker is None


class TestSyncBehind:
    """Writes past SYNC_BEHIND_BYTES start an fdatasync on the handle's
    sync thread; its failure must reach the caller, never be dropped."""

    @pytest.fixture(autouse=True)
    def small_threshold(self, monkeypatch):
        monkeypatch.setattr(dataset, "SYNC_BEHIND_BYTES", 256)

    def test_sync_runs_off_the_caller_thread(self, path, monkeypatch):
        threads = []
        real = os.fdatasync

        def fdatasync(fd):
            threads.append(threading.get_ident())
            real(fd)

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        with dataset.create(path, 8, "int64") as ds:
            ds.write_block(0, np.arange(16, dtype=np.int64))  # 128 bytes
            assert threads == []
            ds.write_block(16, np.arange(16, dtype=np.int64))
            ds.flush()
            assert len(threads) == 1
            assert threads[0] != threading.get_ident()

    def test_failure_raised_from_flush(self, path, monkeypatch):
        def fdatasync(fd):
            raise OSError(errno.EIO, "injected writeback error")

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        with dataset.create(path, 8, "int64") as ds:
            ds.write_block(0, np.arange(32, dtype=np.int64))
            with pytest.raises(IoFailure, match="fdatasync"):
                ds.flush()
            ds.flush()  # reported once, like the kernel's writeback error

    def test_failure_raised_from_next_write_that_would_sync(self, path, monkeypatch):
        def fdatasync(fd):
            raise OSError(errno.EIO, "injected writeback error")

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        block = np.arange(32, dtype=np.int64)
        with dataset.create(path, 8, "int64") as ds:
            ds.write_block(0, block)  # starts the failing sync
            deadline = time.monotonic() + 10
            with pytest.raises(IoFailure, match="fdatasync"):
                while time.monotonic() < deadline:
                    ds.write_block(32, block)

    def test_close_waits_for_running_sync(self, path, monkeypatch):
        state = {}

        def fdatasync(fd):
            time.sleep(0.2)
            os.fstat(fd)  # EBADF if close did not wait
            state["finished"] = True

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        ds = dataset.create(path, 8, "int64")
        ds.write_block(0, np.arange(32, dtype=np.int64))
        ds.close()
        assert state == {"finished": True}

    def test_close_raises_unreported_failure(self, path, monkeypatch):
        def fdatasync(fd):
            raise OSError(errno.EIO, "injected writeback error")

        monkeypatch.setattr(os, "fdatasync", fdatasync)
        ds = dataset.create(path, 8, "int64")
        ds.write_block(0, np.arange(32, dtype=np.int64))
        with pytest.raises(IoFailure, match="fdatasync"):
            ds.close()  # the file is closed all the same, or the test leaks


class TestHelpers:
    def test_is_dataset_file(self, tmp_path, path):
        dataset.write_signal(path, np.zeros(4, dtype=np.int64))
        os.symlink(path, tmp_path / "link")
        os.symlink(dataset.sidecar_path(path), tmp_path / "meta-link")
        (tmp_path / "plain.csv").write_text("index,coefficient\n")
        dataset_files = [path, dataset.sidecar_path(path),
                         str(tmp_path / "link"), str(tmp_path / "meta-link")]
        assert all(map(dataset.is_dataset_file, dataset_files))
        assert not dataset.is_dataset_file(str(tmp_path / "plain.csv"))
        assert not dataset.is_dataset_file(str(tmp_path / "new.csv"))
        assert not dataset.is_dataset_file(str(tmp_path / "new.meta.json"))

    def test_write_read_signal(self, path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=64)
        dataset.write_signal(path, data, domain="walsh")
        arr, kind, domain = dataset.read_signal(path)
        assert kind == "float64"
        assert domain == "walsh"
        assert np.array_equal(arr, data)

    @pytest.mark.parametrize("data", [np.zeros((4, 4), dtype=np.int64),
                                      np.zeros(0, dtype=np.int64),
                                      np.int64(7),
                                      np.zeros(6, dtype=np.float64)],
                             ids=["2-d", "empty", "0-d", "length-6"])
    def test_write_signal_refuses_shape_unwritten(self, tmp_path, data):
        # The array is checked before create, so a refusal leaves no
        # zero-filled payload or sidecar behind.
        with pytest.raises(BadArguments):
            dataset.write_signal(str(tmp_path / "data.bin"), data)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("dtype", [np.int32, np.float32, ">i8"])
    def test_write_signal_refuses_dtype_unwritten(self, tmp_path, dtype):
        with pytest.raises(BadArguments, match="unsupported dtype"):
            dataset.write_signal(str(tmp_path / "data.bin"),
                                 np.zeros(4, dtype=dtype))
        assert os.listdir(tmp_path) == []

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

