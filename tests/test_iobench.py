"""I/O benchmark tests on small scratch files; absolute speeds are
machine-dependent and never asserted, only the accounting."""

import os
import tracemalloc

import pytest

from bigwht import iobench
from bigwht.errors import BadArguments, DiskFull

from conftest import trickle


MB = 1 << 20


class TestMeasureCopy:
    def test_transfer_count(self, tmp_path):
        result = iobench.measure_copy(str(tmp_path), 16 * MB, 2 * MB, seed=1)
        assert result.transfers == 8
        assert result.seconds > 0
        assert result.mbps == pytest.approx(16 * MB / result.seconds / 1e6)

    def test_scratch_cleaned_up(self, tmp_path):
        iobench.measure_copy(str(tmp_path), MB, MB, seed=2)
        assert os.listdir(tmp_path) == []

    def test_partial_tail_block(self, tmp_path):
        result = iobench.measure_copy(str(tmp_path), 3 * MB, 2 * MB, seed=3)
        assert result.transfers == 2

    def test_bad_arguments(self, tmp_path):
        with pytest.raises(BadArguments):
            iobench.measure_copy(str(tmp_path), 0, MB)
        with pytest.raises(BadArguments):
            iobench.measure_copy(str(tmp_path), MB, 0)

    def test_disk_full_preflight(self, tmp_path):
        with pytest.raises(DiskFull):
            iobench.measure_copy(str(tmp_path), 1 << 60, MB)

    def test_oversize_transfers_capped(self, tmp_path):
        result = iobench.measure_copy(
            str(tmp_path), 4 * MB, iobench.MAX_TRANSFER_BYTES * 2, seed=4
        )
        assert result.capped_transfer_bytes == iobench.MAX_TRANSFER_BYTES
        assert result.transfers == 1

    def test_direct_io_or_recorded_fallback(self, tmp_path):
        result = iobench.measure_copy(
            str(tmp_path), 4 * MB, MB, direct_io=True, seed=5
        )
        # Either the platform honoured O_DIRECT or the fallback left a note.
        assert result.direct_io or result.warnings


class TestStream:
    def test_write_pattern_filled_in_place(self, tmp_path):
        # The 0xA5 pattern is written into the transfer buffer itself; a
        # bytes pattern would add a temporary as large as the transfer.
        dst = tmp_path / "out.bin"
        transfer = 4 * MB
        tracemalloc.start()
        try:
            iobench._stream(None, str(dst), 2 * transfer, transfer, False, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < transfer // 2
        assert dst.read_bytes() == b"\xa5" * (2 * transfer)


class TestSweep:
    def test_report_shape(self, tmp_path):
        report = iobench.sweep(
            str(tmp_path), 8 * MB, [MB, 2 * MB, 4 * MB], seed=6
        )
        assert len(report.rows) == 3
        assert [r.block_bytes for r in report.rows] == [MB, 2 * MB, 4 * MB]
        for row in report.rows:
            assert row.error is None
            assert row.copy_seconds > 0
            assert row.read_mbps > 0
            assert row.write_mbps > 0
        report.validate()

    def test_default_sizes(self):
        assert iobench.DEFAULT_BLOCK_SIZES == tuple(
            mb << 20 for mb in (2, 8, 32, 128, 512, 1024)
        )

    def test_empty_sizes_rejected(self, tmp_path):
        with pytest.raises(BadArguments):
            iobench.sweep(str(tmp_path), MB, [])

    def test_duplicates_deduplicated_order_preserved(self, tmp_path):
        report = iobench.sweep(
            str(tmp_path), 2 * MB, [2 * MB, MB, 2 * MB, MB], seed=7,
            measure_raw=False,
        )
        assert [r.block_bytes for r in report.rows] == [2 * MB, MB]

    def test_per_size_failure_does_not_abort(self, tmp_path, monkeypatch):
        original = iobench.measure_copy

        def flaky(directory, file_bytes, block_bytes, direct_io=False, seed=None):
            if block_bytes == 2 * MB:
                raise iobench.IoFailure("injected")
            return original(directory, file_bytes, block_bytes, direct_io, seed)

        monkeypatch.setattr(iobench, "measure_copy", flaky)
        report = iobench.sweep(str(tmp_path), MB, [MB, 2 * MB], seed=8,
                               measure_raw=False)
        assert report.rows[0].error is None
        assert report.rows[1].error == "injected"

    def test_csv_schema(self, tmp_path):
        report = iobench.sweep(str(tmp_path), MB, [MB], seed=9,
                               measure_raw=False)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "block_bytes,seconds,mbps"
        fields = lines[1].split(",")
        assert int(fields[0]) == MB
        assert float(fields[1]) > 0
        assert float(fields[2]) > 0

    def test_table_renders(self, tmp_path):
        report = iobench.sweep(str(tmp_path), MB, [MB], seed=10,
                               measure_raw=False)
        table = report.format_table()
        assert "copy MB/s" in table
        assert str(MB) in table

    def test_arithmetic_self_consistency(self, tmp_path):
        report = iobench.sweep(str(tmp_path), 4 * MB, [MB, 2 * MB], seed=11,
                               measure_raw=False)
        for row in report.rows:
            implied = row.copy_mbps * 1e6 * row.copy_seconds
            assert abs(implied - report.file_bytes) <= 0.001 * report.file_bytes


class TestShortWrites:
    """A write may legally move fewer bytes than asked; the copy must go on
    from where it stopped instead of failing."""

    @pytest.fixture(autouse=True)
    def cap_writes(self, monkeypatch):
        # Every write moves at most half a block, whichever call makes it.
        monkeypatch.setattr(os, "pwritev", trickle(os.pwritev, 4096))
        writev = os.writev
        monkeypatch.setattr(os, "writev",
                            lambda fd, buffers: writev(fd, [buffers[0][:4096]]))

    def test_measure_copy_verified(self, tmp_path):
        result = iobench.measure_copy(str(tmp_path), 64 * 1024, 8192, seed=12)
        assert result.transfers == 8
        assert os.listdir(tmp_path) == []

    def test_sweep_reports_no_error(self, tmp_path):
        report = iobench.sweep(str(tmp_path), 64 * 1024, [8192], seed=13)
        row = report.rows[0]
        assert row.error is None
        assert row.read_mbps > 0
        assert row.write_mbps > 0
