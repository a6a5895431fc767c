"""Runtime-model regressions: the figures the default constants were
fitted to must come back as pure arithmetic."""

import pytest

from bigwht import perfmodel
from bigwht.errors import BadArguments, EmptyReport
from bigwht.iobench import BenchRow, IoBenchReport
from bigwht.perfmodel import (
    PerfParams,
    calibrate,
    estimate,
    estimate_distributed,
    with_observed_overhead,
)


DEFAULTS = PerfParams()


class TestEstimate:
    def test_reference_32_30(self):
        est = estimate(DEFAULTS, 32, 30)
        assert est.q == 3
        assert est.t_cpu_seconds == pytest.approx(160.0, abs=1)
        assert est.t_io_seconds == pytest.approx(1518.0, abs=1)
        assert est.total_seconds == pytest.approx(1678.0, abs=1)

    def test_reference_32_29(self):
        assert estimate(DEFAULTS, 32, 29).total_seconds == pytest.approx(2184.0, abs=1)

    def test_observed_per_pass_overhead(self):
        # Real passes ran ~577 s against the 506 s copy; with that
        # multiplier the measured 2468 s run is reproduced.
        est = estimate(with_observed_overhead(DEFAULTS), 32, 29)
        assert est.total_seconds == pytest.approx(2468.0, abs=10)

    def test_tera_scale_within_three_weeks(self):
        est = estimate(DEFAULTS, 40, 30)
        assert 14 <= est.total_days <= 21

    def test_additivity_exact(self):
        for n in range(26, 44):
            for b in (26, 29, 30):
                if b > n:
                    continue
                est = estimate(DEFAULTS, n, b)
                assert est.total_seconds == est.t_cpu_seconds + est.t_io_seconds

    def test_doubling_n(self):
        for n in (30, 33, 36):
            a = estimate(DEFAULTS, n, 29)
            b = estimate(DEFAULTS, n + 1, 29)
            assert b.t_cpu_seconds == 2 * a.t_cpu_seconds
            assert b.q == a.q + 1
            assert b.t_io_seconds > 2 * a.t_io_seconds

    def test_n_equals_b_single_pass(self):
        assert estimate(DEFAULTS, 30, 30).q == 1

    @pytest.mark.parametrize("params, n", [
        (DEFAULTS, 2000),  # 2.0 ** (n - n_ref) raises OverflowError
        (PerfParams(t_cp_seconds=1e308, io_overhead=1e10), 40),  # T_io = inf
        (PerfParams(t_cpu_ref_seconds=1e308, t_cp_seconds=1e308), 32),  # sum
    ])
    def test_runtime_beyond_float_refused(self, params, n):
        with pytest.raises(BadArguments, match="too large"):
            estimate(params, n, 30)

    def test_preconditions(self):
        with pytest.raises(BadArguments):
            estimate(DEFAULTS, 28, 30)
        with pytest.raises(BadArguments):
            estimate(DEFAULTS, 28, 0)
        with pytest.raises(BadArguments):
            PerfParams(t_cp_seconds=-1.0)

    def test_speed_factor_scales_io_only(self):
        flash = PerfParams(speed_factor=perfmodel.FLASH_SPEED_FACTOR)
        rot = estimate(DEFAULTS, 32, 30)
        fl = estimate(flash, 32, 30)
        assert fl.t_cpu_seconds == rot.t_cpu_seconds
        assert fl.t_io_seconds == pytest.approx(rot.t_io_seconds * 0.75)


class TestDistributed:
    def test_fleet_of_64(self):
        est = estimate_distributed(DEFAULTS, 45, 40, 30, 64)
        # (2.5 * 2**19) + 11 * 506 * 2**8 seconds, approximately 32 days.
        assert est.per_machine_seconds == pytest.approx(2_718_720, rel=0.05)
        assert est.per_machine_seconds / 86400 == pytest.approx(32, rel=0.05)
        assert est.expected_coverage == pytest.approx(1 - (31 / 32) ** 64, abs=1e-12)

    def test_no_reduction_full_coverage(self):
        est = estimate_distributed(DEFAULTS, 40, 40, 30, 1)
        assert est.expected_coverage == 1.0

    def test_single_machine_fraction(self):
        est = estimate_distributed(DEFAULTS, 45, 40, 30, 1)
        assert est.expected_coverage == pytest.approx(1 / 32)

    def test_coverage_monotone_in_machines(self):
        prev = 0.0
        for machines in (1, 4, 16, 64, 256):
            cov = estimate_distributed(DEFAULTS, 45, 40, 30, machines).expected_coverage
            assert cov > prev
            prev = cov

    def test_preconditions(self):
        with pytest.raises(BadArguments):
            estimate_distributed(DEFAULTS, 40, 45, 30, 4)
        with pytest.raises(BadArguments):
            estimate_distributed(DEFAULTS, 45, 40, 30, 0)

    def test_huge_source_refused(self):
        # The fold's CPU cost at 2**2000 is beyond a float.
        with pytest.raises(BadArguments, match="too large"):
            estimate_distributed(DEFAULTS, 2000, 40, 30, 1)


def report_with(copy_seconds, file_bytes, blocks=None):
    blocks = blocks or [128 << 20]
    rows = [
        BenchRow(block_bytes=b, copy_seconds=s, copy_mbps=file_bytes / s / 1e6,
                 read_mbps=None, write_mbps=None, transfers=1, direct_io=False)
        for b, s in zip(blocks, copy_seconds)
    ]
    return IoBenchReport(file_bytes=file_bytes, direct_io=False, rows=rows)


class TestCalibrate:
    def test_reference_constants_round_trip(self):
        report = report_with([506.0], file_bytes=8 << 32)
        params = calibrate(report, (26, 2.5))
        assert params.t_cp_seconds == 506.0
        assert params.unit_log2_dim == 32
        assert params.t_cpu_ref_seconds == 2.5
        assert params.n_ref == 26

    def test_single_row_chosen(self):
        report = report_with([1.25], file_bytes=8 << 20)
        params = calibrate(report, (20, 0.04))
        assert params.t_cp_seconds == 1.25
        assert params.unit_log2_dim == 20

    def test_cpu_reference_rescaled(self):
        report = report_with([1.0], file_bytes=8 << 20)
        params = calibrate(report, (20, 0.04))
        assert params.t_cpu_ref_seconds == pytest.approx(0.04 * 64)  # 2.56 s at n=26

    def test_largest_block_wins(self):
        report = report_with([9.0, 5.0, 4.0], file_bytes=8 << 24,
                             blocks=[2 << 20, 8 << 20, 32 << 20])
        params = calibrate(report, (20, 0.04))
        assert params.t_cp_seconds == 4.0

    def test_empty_report_rejected(self):
        report = IoBenchReport(file_bytes=8 << 20, direct_io=False, rows=[])
        with pytest.raises(EmptyReport):
            calibrate(report, (20, 0.04))

    def test_failed_rows_ignored(self):
        rows = [
            BenchRow(block_bytes=1 << 20, copy_seconds=None, copy_mbps=None,
                     read_mbps=None, write_mbps=None, transfers=None,
                     direct_io=False, error="boom"),
        ]
        report = IoBenchReport(file_bytes=8 << 20, direct_io=False, rows=rows)
        with pytest.raises(EmptyReport):
            calibrate(report, (20, 0.04))

    def test_non_power_of_two_file_rejected(self):
        report = report_with([1.0], file_bytes=24)
        with pytest.raises(BadArguments):
            calibrate(report, (20, 0.04))


class TestFormatting:
    def test_estimate_line(self):
        line = perfmodel.format_estimate(estimate(DEFAULTS, 32, 30))
        assert "q=3" in line and "1678" in line

    def test_table_rows(self):
        table = perfmodel.format_table(DEFAULTS)
        lines = table.strip().splitlines()
        assert len(lines) == 10  # header + n in 32..40
        assert lines[1].startswith("  32")
