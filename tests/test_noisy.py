"""Noisy-sparse tooling tests: exact construction ground truth, the SNR
formula, significance thresholds, extraction ordering, and the Walsh
noise-variance law."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bigwht import dataset
from bigwht.core import Domain, Signal, fwht_array, fwht_inplace
from bigwht.errors import BadArguments, BadSpec, BigWHTError, OverflowBoundError
from bigwht.noisy import (
    NoiseKind,
    NoisySignalSpec,
    extract_above,
    extract_above_dataset,
    gen,
    noise_walsh_variance_check,
    significance_threshold_db,
    snr,
)


def spec_for(n, support, kind=NoiseKind.NONE, sigma=0.0, seed=0):
    return NoisySignalSpec(log2_dim=n, support=tuple(support),
                           noise_kind=kind, sigma=sigma, seed=seed)


class TestGen:
    def test_dc_coefficient_gives_constant_signal(self):
        clean, noisy = gen(spec_for(4, [(0, 16)]))
        assert clean.data.tolist() == [1] * 16
        assert noisy.data.tolist() == [1] * 16

    def test_planted_coefficient_is_exact(self):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        walsh = fwht_inplace(clean.copy())
        expected = np.zeros(16, dtype=np.int64)
        expected[3] = 16
        assert np.array_equal(walsh.data, expected)

    def test_multi_support_exact(self):
        support = [(1, 1 << 10), (9, -(3 << 10)), (500, 5 << 10)]
        clean, _ = gen(spec_for(10, support))
        walsh = fwht_inplace(clean.copy())
        for idx, amp in support:
            assert walsh.data[idx] == amp
        rest = np.delete(walsh.data, [i for i, _ in support])
        assert np.all(rest == 0)

    def test_golden_rademacher_vector(self):
        # Frozen from a seeded run; the clean part is verified by transform
        # above, the noise part must be reproducible bit for bit.
        clean, noisy = gen(spec_for(4, [(3, 16)], NoiseKind.RADEMACHER,
                                    sigma=1.0, seed=7))
        assert clean.data.tolist() == [
            1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1,
        ]
        assert noisy.data.tolist() == [
            2, 0, 0, 2, 2, 0, 0, 0, 0, -2, -2, 2, 2, -2, -2, 2,
        ]
        assert noisy.data.dtype == np.int64

    def test_deterministic_under_seed(self):
        a = gen(spec_for(6, [(5, 64)], NoiseKind.GAUSSIAN, 2.0, seed=42))[1]
        b = gen(spec_for(6, [(5, 64)], NoiseKind.GAUSSIAN, 2.0, seed=42))[1]
        c = gen(spec_for(6, [(5, 64)], NoiseKind.GAUSSIAN, 2.0, seed=43))[1]
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_fractional_amplitude_takes_float_path(self):
        clean, _ = gen(spec_for(3, [(2, 4.5)]))
        assert clean.data.dtype == np.float64
        walsh = fwht_inplace(clean.copy())
        assert walsh.data[2] == pytest.approx(4.5, rel=1e-12)

    @pytest.mark.parametrize("amp", [12, 12.0, -4])
    def test_integer_amplitude_off_the_grid_takes_float_path(self, amp):
        # An integer amplitude that is not a multiple of 2**n = 8 has no
        # exact int64 time-domain signal; the float path keeps it exact.
        clean, noisy = gen(spec_for(3, [(2, amp), (5, 8)]))
        assert clean.data.dtype == noisy.data.dtype == np.float64
        walsh = fwht_inplace(clean.copy())
        assert walsh.data.tolist() == [0, 0, amp, 0, 0, 8, 0, 0]

    def test_fractional_path_scales_before_summing(self):
        # The 0.5 keeps gen on the float64 path. Summing 1e308 + 1e308
        # before dividing by 2**n would overflow to inf, then NaN.
        clean, _ = gen(spec_for(4, [(1, 1e308), (2, 1e308), (3, 0.5)]))
        assert np.all(np.isfinite(clean.data))
        walsh = clean.data.copy()
        fwht_array(walsh)
        assert walsh[1] == walsh[2] == 1e308

    def test_uniform_noise_bounds(self):
        sigma = 2.0
        _, noisy = gen(spec_for(10, [(0, 1 << 10)], NoiseKind.UNIFORM, sigma, 1))
        deviation = noisy.data - 1.0
        assert np.all(np.abs(deviation) <= sigma * math.sqrt(3.0) + 1e-12)

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            gen(spec_for(3, [(0, 8), (0, 16)]))  # duplicate index
        with pytest.raises(BadSpec):
            gen(spec_for(3, [(8, 8)]))  # index out of range
        with pytest.raises(BadSpec):
            gen(spec_for(3, [], sigma=-1.0))

    @pytest.mark.parametrize("n", [60, 62])
    def test_size_beyond_numpy_refused(self, n):
        # 8 * 2**n bytes exceeds numpy's largest array from n = 60 on;
        # validate refuses before anything is allocated.
        with pytest.raises(BadSpec, match="log2_dim"):
            gen(spec_for(n, []))


GOLDEN_N = 12
EXACT_SUPPORT = ((0, 5 << GOLDEN_N), (77, -(3 << GOLDEN_N)),
                 (1234, 7 << GOLDEN_N), (4095, 1 << GOLDEN_N))
FRACTIONAL_SUPPORT = ((3, 4.5), (100, -2.25), (2000, 1000.0))
EXACT_CLEAN_SHA1 = "5857536090e5e2f160c4e6edb549b168b8d0be72"


class TestGenGolden:
    """SHA-1s of gen's output bytes, frozen from the build that divided a
    dense Walsh array by 2**n after the transform."""

    @pytest.mark.parametrize(
        "support, kind, sigma, seed, dtypes, clean_sha1, noisy_sha1", [
        (EXACT_SUPPORT, NoiseKind.NONE, 0.0, 1, ("int64", "int64"),
         EXACT_CLEAN_SHA1, EXACT_CLEAN_SHA1),
        (EXACT_SUPPORT, NoiseKind.RADEMACHER, 3.0, 2, ("int64", "int64"),
         EXACT_CLEAN_SHA1, "8f647705d8a1f3731e4da6fa19bed37dc1993f2e"),
        (EXACT_SUPPORT, NoiseKind.RADEMACHER, 1.5, 3, ("int64", "float64"),
         EXACT_CLEAN_SHA1, "1b58e854f43da749f10f0bdbb2447dbd2a93eb4a"),
        (EXACT_SUPPORT, NoiseKind.UNIFORM, 2.0, 4, ("int64", "float64"),
         EXACT_CLEAN_SHA1, "0e8d4c58c75e4df9b990c33ad9564a4757b0698d"),
        (EXACT_SUPPORT, NoiseKind.GAUSSIAN, 2.0, 5, ("int64", "float64"),
         EXACT_CLEAN_SHA1, "931705598ad270199aaa4c71813e7882a503432d"),
        (FRACTIONAL_SUPPORT, NoiseKind.RADEMACHER, 3.0, 6, ("float64", "float64"),
         "d372423bf82f6f82399f851edac549bbab26c3d8",
         "da86e780463f40e7796c639db81dcb55bc07686b"),
    ], ids=["none", "rademacher-int", "rademacher-frac", "uniform", "gaussian",
            "fractional-amplitudes"])
    def test_bytes(self, support, kind, sigma, seed, dtypes, clean_sha1,
                   noisy_sha1):
        clean, noisy = gen(spec_for(GOLDEN_N, support, kind, sigma, seed))
        assert (str(clean.data.dtype), str(noisy.data.dtype)) == dtypes
        assert hashlib.sha1(clean.data.tobytes()).hexdigest() == clean_sha1
        assert hashlib.sha1(noisy.data.tobytes()).hexdigest() == noisy_sha1


class TestGenOverflowBound:
    """The exact path refuses exactly when max |amp| * 2**n >= 2**63."""

    N = 10

    @pytest.mark.parametrize("amp", [1 << 53, -(1 << 53), 1 << 70, -(1 << 63)])
    def test_refused(self, amp):
        with pytest.raises(OverflowBoundError):
            gen(spec_for(self.N, [(5, 0), (9, amp)]))

    def test_largest_accepted(self):
        amp = (1 << 53) - (1 << self.N)
        clean, noisy = gen(spec_for(self.N, [(9, amp)]))
        walsh = clean.data.copy()
        fwht_array(walsh)
        expected = np.zeros(1 << self.N, dtype=np.int64)
        expected[9] = amp
        assert walsh.tobytes() == expected.tobytes()
        assert noisy.data.tobytes() == clean.data.tobytes()

    def test_noisy_signal_is_swept(self):
        sigma = float(1 << 53)
        with pytest.raises(OverflowBoundError):
            gen(spec_for(self.N, [], NoiseKind.RADEMACHER, sigma))
        _, noisy = gen(spec_for(self.N, [], NoiseKind.RADEMACHER, sigma - 1))
        assert np.all(np.abs(noisy.data) == (1 << 53) - 1)

    def test_noisy_sum_cannot_wrap(self):
        # max |clean| + sigma = 5 * 2**61 >= 2**63, though clean alone fits:
        # the int64 sum would wrap to -6917529027641081856 unchecked.
        with pytest.raises(OverflowBoundError):
            gen(spec_for(0, [(0, 3 << 61)], NoiseKind.RADEMACHER, 1 << 62))

    def test_sigma_beyond_int64_refused(self):
        with pytest.raises(BigWHTError):
            gen(spec_for(4, [(0, 16)], NoiseKind.RADEMACHER, 1e19))


class TestGenMemory:
    """gen holds its two returned arrays and little else."""

    N = 18

    @pytest.mark.parametrize("kind, sigma", [
        (NoiseKind.RADEMACHER, 3.0),
        (NoiseKind.GAUSSIAN, 2.0),
    ])
    def test_peak(self, kind, sigma):
        support = [(3, 5 << self.N), (77, -(9 << self.N))]
        gen(spec_for(8, [(3, 5 << 8)], kind, sigma))  # first-call caches
        tracemalloc.start()
        try:
            out = gen(spec_for(self.N, support, kind, sigma, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[0].data.dtype == np.int64
        assert peak <= 2 * (8 << self.N) + (64 << 10)


class TestSnr:
    def test_single_coefficient_zero_db(self):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        report = snr(clean, sigma=1.0)
        assert report.snr_linear == pytest.approx(1.0, rel=1e-12)
        assert report.snr_db == pytest.approx(0.0, abs=1e-9)
        assert report.signal_energy == 256.0

    def test_amplitude_scaling_quadratic(self):
        base, _ = gen(spec_for(4, [(3, 16)]))
        doubled, _ = gen(spec_for(4, [(3, 32)]))
        assert snr(doubled, 1.0).snr_linear == pytest.approx(
            4 * snr(base, 1.0).snr_linear, rel=1e-12
        )

    def test_sigma_two(self):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        report = snr(clean, sigma=2.0)
        assert report.snr_linear == pytest.approx(0.25, rel=1e-12)
        assert report.snr_db == pytest.approx(-6.0206, abs=1e-3)

    def test_walsh_domain_input_matches_time_domain(self):
        clean, _ = gen(spec_for(6, [(9, 64), (32, -128)]))
        walsh = fwht_inplace(clean.copy())
        a = snr(clean, 0.5)
        b = snr(walsh, 0.5)
        assert a.snr_linear == pytest.approx(b.snr_linear, rel=1e-12)

    def test_zero_sigma_flags_infinite(self):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        report = snr(clean, sigma=0.0)
        assert report.infinite
        assert report.snr_linear == math.inf

    def test_underflowing_noise_variance_flags_infinite(self):
        # 2**6 * (1e-200)**2 underflows to 0.0: the same report as sigma = 0.
        clean, _ = gen(spec_for(6, [(3, 64)]))
        report = snr(clean, sigma=1e-200)
        assert report.infinite
        assert report.noise_walsh_variance == 0.0
        assert (report.snr_linear, report.snr_db) == (math.inf, math.inf)
        zero = snr(clean, sigma=0.0)
        assert (zero.infinite, zero.noise_walsh_variance, zero.snr_db) \
            == (True, 0.0, math.inf)

    def test_negative_sigma_rejected(self):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        with pytest.raises(BadArguments):
            snr(clean, sigma=-1.0)

    def test_overflowing_noise_variance_rejected(self):
        # 2**4 * (1e200)**2 is not a finite float64.
        clean, _ = gen(spec_for(4, [(3, 16)]))
        with pytest.raises(BadArguments, match="overflow"):
            snr(clean, sigma=1e200)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        clean, _ = gen(spec_for(4, [(3, 16)]))
        with pytest.raises(BadArguments, match="finite"):
            snr(clean, sigma=sigma)
        with pytest.raises(BadSpec, match="finite"):
            gen(spec_for(4, [(3, 16)], NoiseKind.GAUSSIAN, sigma))
        with pytest.raises(BadArguments, match="finite"):
            noise_walsh_variance_check(4, sigma, NoiseKind.GAUSSIAN, 1)


class TestSignificanceThreshold:
    def test_n32_natural_log(self):
        assert significance_threshold_db(32) == pytest.approx(-88.890, abs=5e-3)

    def test_n1_direct_evaluation(self):
        expected = 10 * math.log10(8 * math.log(2) / 2)
        assert significance_threshold_db(1) == pytest.approx(expected, rel=1e-12)

    def test_decrement_per_dimension_bit(self):
        step = 10 * math.log10(2)
        for n in (1, 8, 31):
            assert significance_threshold_db(n + 1) == pytest.approx(
                significance_threshold_db(n) - step, rel=1e-12
            )

    def test_base2_reading(self):
        assert significance_threshold_db(3, log_base="2") == pytest.approx(
            10 * math.log10(1.0), abs=1e-12
        )

    def test_n0_rejected(self):
        with pytest.raises(BadArguments):
            significance_threshold_db(0)


class TestExtract:
    def test_ramp_example(self):
        sig = Signal(np.array([10, -2, -4, 0], dtype=np.int64), Domain.WALSH)
        assert extract_above(sig, 4) == [(0, 10), (2, -4)]

    def test_tau_zero_returns_everything(self):
        sig = Signal(np.array([10, -2, -4, 0], dtype=np.int64), Domain.WALSH)
        assert len(extract_above(sig, 0)) == 4

    def test_tau_above_max_empty(self):
        sig = Signal(np.array([10, -2, -4, 0], dtype=np.int64), Domain.WALSH)
        assert extract_above(sig, 11) == []

    def test_tie_break_by_index(self):
        sig = Signal(np.array([-5, 3, 5, -3], dtype=np.int64), Domain.WALSH)
        assert extract_above(sig, 3) == [(0, -5), (2, 5), (1, 3), (3, -3)]

    def test_partition_no_loss_no_duplication(self):
        rng = np.random.default_rng(12)
        data = rng.integers(-100, 100, 256).astype(np.int64)
        sig = Signal(data, Domain.WALSH)
        tau = 40
        above = extract_above(sig, tau)
        indices = [i for i, _ in above]
        assert len(set(indices)) == len(indices)
        complement = set(range(256)) - set(indices)
        assert all(abs(int(data[i])) < tau for i in complement)
        assert all(abs(v) >= tau for _, v in above)

    def test_requires_walsh_domain(self):
        with pytest.raises(BadArguments):
            extract_above(Signal(np.zeros(4, dtype=np.int64)), 1)

    def test_int64_minimum_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", 2)
        data = np.array([3, -(1 << 63), 0, (1 << 63) - 1], dtype=np.int64)
        expected = [(1, -(1 << 63)), (3, (1 << 63) - 1), (0, 3)]
        assert extract_above(Signal(data, Domain.WALSH), 1) == expected
        path = str(tmp_path / "walsh.bin")
        dataset.write_signal(path, data, domain="walsh")
        with dataset.open_validated(path) as ds:
            assert extract_above_dataset(ds, 1) == expected
            assert extract_above_dataset(ds, 1 << 63) == [(1, -(1 << 63))]
            assert extract_above_dataset(ds, 1 << 64) == []

    @pytest.mark.parametrize("tau", [1 << 63, 1 << 64])
    def test_tau_beyond_int64_finds_nothing(self, tau):
        data = np.array([(1 << 63) - 1, -(1 << 63) + 1, 0, 5], dtype=np.int64)
        assert extract_above(Signal(data, Domain.WALSH), tau) == []

    def test_nan_tau_rejected(self, tmp_path):
        data = np.array([10, -2, -4, 0], dtype=np.int64)
        with pytest.raises(BadArguments, match="tau"):
            extract_above(Signal(data, Domain.WALSH), math.nan)
        path = str(tmp_path / "walsh.bin")
        dataset.write_signal(path, data, domain="walsh")
        with dataset.open_validated(path) as ds:
            with pytest.raises(BadArguments, match="tau"):
                extract_above_dataset(ds, math.nan)

    def test_streaming_matches_in_memory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset, "STREAM_BLOCK_ELEMS", 64)
        rng = np.random.default_rng(13)
        data = rng.integers(-1000, 1000, 1 << 10).astype(np.int64)
        path = str(tmp_path / "walsh.bin")
        dataset.write_signal(path, data, domain="walsh")
        with dataset.open_validated(path) as ds:
            streamed = extract_above_dataset(ds, 700)
        in_memory = extract_above(Signal(data, Domain.WALSH), 700)
        assert streamed == in_memory


class TestNoiseVarianceLaw:
    def test_uniform_matches_model(self):
        est = noise_walsh_variance_check(16, 1.0, NoiseKind.UNIFORM, 50, seed=1)
        assert est == pytest.approx(1 << 16, rel=0.10)

    def test_rademacher_matches_model(self):
        est = noise_walsh_variance_check(10, 1.0, NoiseKind.RADEMACHER, 50, seed=2)
        assert est == pytest.approx(1 << 10, rel=0.10)

    def test_gaussian_matches_model(self):
        est = noise_walsh_variance_check(12, 0.5, NoiseKind.GAUSSIAN, 50, seed=3)
        assert est == pytest.approx(0.25 * (1 << 12), rel=0.10)

    def test_rademacher_trial_matches_its_definition(self):
        n, sigma, seed = 8, 1.5, 4
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        noise = (rng.integers(0, 2, 1 << n) * 2 - 1) * sigma
        fwht_array(noise)
        expected = float(np.mean(noise * noise))
        assert noise_walsh_variance_check(
            n, sigma, NoiseKind.RADEMACHER, 1, seed=seed) == expected

    def test_zero_sigma_exactly_zero(self):
        assert noise_walsh_variance_check(8, 0.0, NoiseKind.GAUSSIAN, 5) == 0.0

    def test_trials_validated(self):
        with pytest.raises(BadArguments):
            noise_walsh_variance_check(8, 1.0, NoiseKind.UNIFORM, 0)

    # NoisySignalSpec's range: n = 60 would ask numpy for an array of
    # 2**60 elements, and a negative n for a negative shift.
    @pytest.mark.parametrize("n", [-1, 60])
    def test_n_out_of_range_refused(self, n):
        with pytest.raises(BadArguments, match=r"\[0, 60\)"):
            noise_walsh_variance_check(n, 1.0, NoiseKind.UNIFORM, 1)

    def test_n_zero_is_one_sample(self):
        # H_1 is the identity, so the estimate is the noise's own variance.
        assert noise_walsh_variance_check(0, 1.0, NoiseKind.RADEMACHER, 3) == 1.0
