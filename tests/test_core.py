"""Core transform tests: the brute-force definition is the oracle, the
fast path must agree with it exactly."""

import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bigwht import core
from bigwht.core import (
    TILE_ELEMS,
    TILE_LOG2,
    Domain,
    Signal,
    butterfly,
    check_magnitude_bound,
    fwht_array,
    fwht_inplace,
    inverse_wht_inplace,
    parseval_energy,
    wht_bruteforce,
)
from bigwht.errors import (
    BadArguments,
    InexactDivision,
    OracleTooLarge,
    OverflowBoundError,
)


def int_signal(values, domain=Domain.TIME):
    return Signal(np.array(values, dtype=np.int64), domain)


class TestSignal:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(BadArguments):
            Signal(np.zeros(3, dtype=np.int64))

    def test_rejects_bad_dtype(self):
        with pytest.raises(BadArguments):
            Signal(np.zeros(4, dtype=np.int32))

    def test_log2_dim(self):
        assert int_signal([0] * 8).log2_dim == 3
        assert int_signal([5]).log2_dim == 0


class TestDomain:
    def test_member_is_its_sidecar_string(self):
        assert Domain("walsh") is Domain.WALSH
        assert Domain.WALSH == "walsh"
        assert f"{Domain.TIME}" == str(Domain.TIME) == "time"
        assert json.dumps({"domain": Domain.WALSH}) == '{"domain": "walsh"}'

    def test_bad_name_rejected(self):
        with pytest.raises(BadArguments):
            Domain("frequency")


class TestBruteforce:
    def test_delta_input(self):
        out = wht_bruteforce(int_signal([1, 0, 0, 0]))
        assert out.data.tolist() == [1, 1, 1, 1]

    def test_constant_input(self):
        out = wht_bruteforce(int_signal([1, 1, 1, 1]))
        assert out.data.tolist() == [4, 0, 0, 0]

    def test_ramp(self):
        # All 16 sign terms evaluated by hand: y = (10, -2, -4, 0).
        out = wht_bruteforce(int_signal([1, 2, 3, 4]))
        assert out.data.tolist() == [10, -2, -4, 0]

    def test_input_unchanged(self):
        sig = int_signal([1, 2, 3, 4])
        wht_bruteforce(sig)
        assert sig.data.tolist() == [1, 2, 3, 4]

    def test_oracle_limit(self):
        with pytest.raises(OracleTooLarge):
            wht_bruteforce(int_signal([0] * 16), limit=3)

    def test_overflow_guard(self):
        big = 1 << 61
        with pytest.raises(OverflowBoundError):
            wht_bruteforce(int_signal([big, 0, 0, 0]))

    def test_float_input(self):
        # y0 = 0.5-0.5+1.5+2.5, y1 = 0.5+0.5+1.5-2.5,
        # y2 = 0.5-0.5-1.5-2.5, y3 = 0.5+0.5-1.5+2.5
        out = wht_bruteforce(Signal(np.array([0.5, -0.5, 1.5, 2.5])))
        np.testing.assert_allclose(out.data, [4.0, 0.0, -4.0, 2.0])


class TestFwht:
    def test_n0_identity(self):
        sig = fwht_inplace(int_signal([7]))
        assert sig.data.tolist() == [7]

    def test_single_butterfly(self):
        assert fwht_inplace(int_signal([3, 1])).data.tolist() == [4, 2]

    def test_matches_bruteforce_example(self):
        assert fwht_inplace(int_signal([1, 2, 3, 4])).data.tolist() == [10, -2, -4, 0]

    def test_domain_toggles(self):
        sig = int_signal([3, 1])
        assert fwht_inplace(sig).domain == Domain.WALSH
        assert fwht_inplace(sig).domain == Domain.TIME

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(42)
        for n in range(0, 11):
            for _ in range(20):
                x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
                fast = fwht_inplace(Signal(x.copy()))
                slow = wht_bruteforce(Signal(x.copy()))
                assert np.array_equal(fast.data, slow.data), f"n={n}"

    def test_butterfly_count(self):
        for n in range(0, 12):
            buf = np.zeros(1 << n, dtype=np.int64)
            assert fwht_array(buf) == n << max(n - 1, 0)

    def test_involution_exact(self):
        rng = np.random.default_rng(7)
        for n in (0, 1, 5, 12, 16):
            x = rng.integers(-1000, 1000, 1 << n).astype(np.int64)
            sig = Signal(x.copy())
            fwht_inplace(sig)
            fwht_inplace(sig)
            assert np.array_equal(sig.data, x * (1 << n))

    def test_linearity_exact(self):
        rng = np.random.default_rng(3)
        n = 9
        for _ in range(10):
            x = rng.integers(-500, 500, 1 << n).astype(np.int64)
            z = rng.integers(-500, 500, 1 << n).astype(np.int64)
            a, b = int(rng.integers(-20, 20)), int(rng.integers(-20, 20))
            combined = fwht_inplace(Signal(a * x + b * z)).data
            wx = fwht_inplace(Signal(x)).data
            wz = fwht_inplace(Signal(z)).data
            assert np.array_equal(combined, a * wx + b * wz)

    def test_overflow_bound_rejects(self):
        n = 4
        bad = np.full(1 << n, 1 << 59, dtype=np.int64)
        with pytest.raises(OverflowBoundError):
            fwht_inplace(Signal(bad))
        # One notch below the bound passes.
        ok = np.full(1 << n, (1 << 59) - 1, dtype=np.int64)
        fwht_inplace(Signal(ok))


def stagewise_fwht(buf):
    """The plain stage-by-stage loop the tiled kernel must match bit for bit."""
    n = int(buf.shape[0]).bit_length() - 1
    for k in range(n):
        pairs = buf.reshape(-1, 2, 1 << k)
        lo = pairs[:, 0, :]
        hi = pairs[:, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    return buf


def tile_boundary_input(n, dtype, seed):
    rng = np.random.default_rng([seed, n])
    if dtype == np.int64:
        return rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
    return rng.normal(size=1 << n)


def record_products(monkeypatch):
    """Record the (m, k, n) of every matrix product run from now on, and
    whether its ``out`` is C-contiguous."""
    shapes = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        out = kwargs.get("out")
        contiguous = out is not None and out.flags.c_contiguous
        shapes.append((a.shape[-2], a.shape[-1], b.shape[-1], contiguous))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


class TestTiledKernel:
    """Dimensions below, at and above the tile size TILE_LOG2 = 16."""

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    # Every tile size t = 0 .. 16, so every radix split of the int64
    # product path (16 = 4+4+4+4, 13 = 4+3+3+3, 3 = 2+1, 1 = 1+0) and both
    # parities of the float64 radix-2 loop, whose odd t ends in the
    # scratch; n = 19 is one radix-4 sweep plus a radix-2 one, n = 20 two
    # radix-4 sweeps, n = 21 two plus a radix-2 one, n = 22 three.
    @pytest.mark.parametrize("n", range(23))
    def test_matches_stagewise_loop(self, n, dtype):
        x = tile_boundary_input(n, dtype, 1)
        expected = stagewise_fwht(x.copy())
        got = x.copy()
        assert fwht_array(got) == (n << n) >> 1
        assert np.array_equal(got, expected)  # bit-identical, not approx

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    # n = 14 gives each half an uneven radix split, 13 = 4+3+3+3.
    @pytest.mark.parametrize("n", [1, 13, 14, 15, 16, 17, 18, 19, 20, 21])
    def test_concurrent_halves(self, n, dtype):
        x = tile_boundary_input(n, dtype, 2)
        expected = x.copy()
        half = expected.size // 2
        fwht_array(expected[:half])
        fwht_array(expected[half:])
        got = x.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(fwht_array, got[:half]),
                           pool.submit(fwht_array, got[half:])]
                for fut in futures:
                    fut.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, expected)

    def test_scratch_is_one_tile(self):
        # n = 13 is one tile with an uneven radix split, 4+3+3+3; n = 20
        # runs two radix-4 sweeps inside the same tile of scratch.
        for n in (13, 18, 20):
            x = tile_boundary_input(n, np.int64, 3)
            tracemalloc.start()
            try:
                fwht_array(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= min(x.size, TILE_ELEMS) * x.itemsize * 5 // 4

    @pytest.mark.parametrize("sign", [1, -1])
    # Every t, so every radix split: BLAS sums each product in its own
    # order, and the result must be exact in all of them.
    @pytest.mark.parametrize("t", range(1, TILE_LOG2 + 1))
    def test_float_exactness_bound(self, monkeypatch, t, sign):
        # max |x| = 2**(53 - t) - 1 takes the product path, whose largest
        # sums come within 2**t of 2**53; one more takes the radix-2 loop.
        bound = 1 << (53 - t)
        rng = np.random.default_rng([t, sign + 1])
        for peak, uses_products in ((bound - 1, True), (bound, False)):
            x = sign * (bound - 1 - rng.integers(0, 1 << 10, 1 << t))
            x[-1] = sign * peak
            expected = stagewise_fwht(x.copy())
            products = record_products(monkeypatch)
            fwht_array(x)
            assert np.array_equal(x, expected)
            assert bool(products) == uses_products

    # A large tile stays below the int64 bound at 2**40 and wraps at 2**62
    # (fwht_array itself checks no bound), where the kernel must wrap as
    # the stage-by-stage loop does.
    @pytest.mark.parametrize("large", [1 << 40, 1 << 62])
    def test_mixed_tile_magnitudes(self, monkeypatch, large):
        rng = np.random.default_rng(4)
        x = tile_boundary_input(TILE_LOG2 + 2, np.int64, 4)
        for start in (TILE_ELEMS, 3 * TILE_ELEMS):
            tile = x[start : start + TILE_ELEMS]
            tile[:] = rng.integers(large - (1 << 20), large, TILE_ELEMS)
            tile[::3] *= -1
        expected = stagewise_fwht(x.copy())
        products = record_products(monkeypatch)
        fwht_array(x)
        assert np.array_equal(x, expected)
        assert len(products) == 2 * 4  # two small tiles, four steps each

    def test_products_stay_on_calling_thread(self, monkeypatch):
        # OpenBLAS runs a product of at most 2**18 multiply-adds on the
        # calling thread; a larger one starts its own thread pool, which
        # contends with the kernel's threads. A strided ``out`` takes
        # numpy's slower matmul loop, so every ``out`` is C-contiguous.
        products = record_products(monkeypatch)
        x = tile_boundary_input(20, np.int64, 5)
        expected = stagewise_fwht(x.copy())
        fwht_array(x)
        assert np.array_equal(x, expected)
        assert len(products) == 16 * 4
        assert all(m * k * n <= 1 << 18 for m, k, n, _ in products)
        assert all(contiguous for *_, contiguous in products)

    def test_radix4_sweeps_use_half_tile_slices(self, monkeypatch):
        # Stages 16 .. 19 of n = 20 are two radix-4 sweeps; each covers
        # the buffer in 8 calls on four half-tile slices.
        sizes = []
        quad = core._quad

        def recording(a, b, c, d, *scratch):
            sizes.append({a.size, b.size, c.size, d.size})
            quad(a, b, c, d, *scratch)

        monkeypatch.setattr(core, "_quad", recording)
        x = tile_boundary_input(20, np.int64, 6)
        expected = stagewise_fwht(x.copy())
        fwht_array(x)
        assert np.array_equal(x, expected)
        assert sizes == [{TILE_ELEMS // 2}] * 16

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    @pytest.mark.parametrize("length", [1, 5, TILE_ELEMS // 2, TILE_ELEMS + 3])
    def test_butterfly(self, length, dtype):
        rng = np.random.default_rng(length)
        lo = rng.integers(-1000, 1000, length).astype(dtype)
        hi = rng.integers(-1000, 1000, length).astype(dtype)
        # Its own scratch, and a given one of 3 elements: every length
        # here ends on a last slice shorter than that.
        for tmp in (None, np.empty(3, dtype=dtype)):
            a, b = lo.copy(), hi.copy()
            butterfly(a, b, tmp)
            assert np.array_equal(a, lo + hi)
            assert np.array_equal(b, lo - hi)


class TestInverse:
    def test_constant(self):
        sig = int_signal([4, 0, 0, 0], Domain.WALSH)
        assert inverse_wht_inplace(sig).data.tolist() == [1, 1, 1, 1]
        assert sig.domain == Domain.TIME

    def test_round_trip_example(self):
        sig = int_signal([10, -2, -4, 0], Domain.WALSH)
        assert inverse_wht_inplace(sig).data.tolist() == [1, 2, 3, 4]

    def test_n0(self):
        assert inverse_wht_inplace(int_signal([7], Domain.WALSH)).data.tolist() == [7]

    def test_requires_walsh_domain(self):
        with pytest.raises(BadArguments):
            inverse_wht_inplace(int_signal([1, 2, 3, 4]))

    def test_inexact_division_restores_buffer(self):
        sig = int_signal([1, 0, 0, 0], Domain.WALSH)
        with pytest.raises(InexactDivision):
            inverse_wht_inplace(sig)
        assert sig.data.tolist() == [1, 0, 0, 0]

    def test_float_round_trip(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=1 << 10)
        sig = Signal(x.copy())
        fwht_inplace(sig)
        inverse_wht_inplace(sig)
        np.testing.assert_allclose(sig.data, x, rtol=1e-12, atol=1e-12)

    def test_random_int_round_trips(self):
        rng = np.random.default_rng(13)
        for n in (1, 4, 9):
            x = rng.integers(-9999, 9999, 1 << n).astype(np.int64)
            sig = Signal(x.copy())
            fwht_inplace(sig)
            inverse_wht_inplace(sig)
            assert np.array_equal(sig.data, x)

    @pytest.mark.parametrize("n", [17, 18])
    def test_round_trip_over_several_tiles(self, n):
        rng = np.random.default_rng(n)
        x = rng.integers(-(1 << 20), 1 << 20, 1 << n)
        x[:: 7] = -np.abs(x[:: 7]) - 1  # plenty of negative values
        sig = Signal(x.copy())
        fwht_inplace(sig)
        inverse_wht_inplace(sig)
        assert sig.domain == Domain.TIME
        assert sig.data.tobytes() == x.tobytes()

    @pytest.mark.parametrize("n", [17, 18])
    def test_inexact_only_in_last_tile_restores_buffer(self, n):
        # A Walsh buffer whose forward transform is divisible by 2**n
        # except on the last tile: y = 2**n z + 2**(n - 16) on the last
        # tile, and H y / 2**n is an integer because the last tile is the
        # coset where the top n - 16 index bits are all set.
        rng = np.random.default_rng(n + 100)
        y = rng.integers(-(1 << 10), 1 << 10, 1 << n) << n
        y[-TILE_ELEMS:] += 1 << (n - 16)
        fwht_array(y)
        assert not np.any(y & ((1 << n) - 1))
        walsh = y >> n
        sig = Signal(walsh.copy(), Domain.WALSH)
        with pytest.raises(InexactDivision):
            inverse_wht_inplace(sig)
        assert sig.domain == Domain.WALSH
        assert sig.data.tobytes() == walsh.tobytes()


class TestParseval:
    def test_constant_example(self):
        assert parseval_energy(int_signal([1, 1, 1, 1])) == 4
        assert parseval_energy(int_signal([4, 0, 0, 0])) == 16

    def test_zero(self):
        assert parseval_energy(int_signal([0] * 8)) == 0

    def test_ramp(self):
        assert parseval_energy(int_signal([1, 2, 3, 4])) == 30
        assert parseval_energy(int_signal([10, -2, -4, 0])) == 120

    def test_scaling_law_exact(self):
        rng = np.random.default_rng(5)
        for n in (0, 3, 8, 14):
            x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
            sig = Signal(x.copy())
            before = parseval_energy(sig)
            fwht_inplace(sig)
            assert parseval_energy(sig) == before * (1 << n)

    def test_scaling_law_float(self):
        rng = np.random.default_rng(6)
        n = 10
        x = rng.normal(size=1 << n)
        sig = Signal(x.copy())
        before = parseval_energy(sig)
        fwht_inplace(sig)
        assert parseval_energy(sig) == pytest.approx(before * (1 << n), rel=1e-9)

    def test_exact_beyond_int64(self):
        # Energies larger than 2**63 must not wrap.
        sig = int_signal([1 << 40] * 4)
        assert parseval_energy(sig) == 4 * (1 << 80)

    def test_exact_sum_holds_one_tile_of_python_ints(self):
        # A Python int of this size plus its list slot costs 40 bytes, so
        # converting the whole 2**18 array at once would peak near 10 MB.
        rng = np.random.default_rng(7)
        x = rng.integers(-(1 << 40), 1 << 40, 1 << 18)
        parseval_energy(int_signal([1, 2]))  # first-call caches
        tracemalloc.start()
        try:
            energy = parseval_energy(Signal(x))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert energy == sum(v * v for v in x.tolist())
        assert peak <= 48 * TILE_ELEMS


def test_magnitude_bound_edge():
    # M * 2**n == 2**63 exactly is rejected; one less passes.
    data = np.array([1 << 53, 0], dtype=np.int64)
    with pytest.raises(OverflowBoundError):
        check_magnitude_bound(data, 10)
    check_magnitude_bound(np.array([(1 << 53) - 1, 0], dtype=np.int64), 10)


@pytest.mark.parametrize("length", [4 * TILE_ELEMS, 3 * TILE_ELEMS + 5])
def test_magnitude_bound_negative_minimum_in_last_slice(length):
    # The bound is checked slice by slice; the one offending value is the
    # last element, and it is negative.
    data = np.full(length, (1 << 53) - 1, dtype=np.int64)
    data[-1] = -(1 << 53)
    with pytest.raises(OverflowBoundError, match=f"max \\|x\\| = {1 << 53} "):
        check_magnitude_bound(data, 10)
    data[-1] += 1
    check_magnitude_bound(data, 10)
