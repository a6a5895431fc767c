"""In-place fast Walsh-Hadamard transform and its verification toolkit.

The package supports two scalar kinds: int64 signals are transformed with
exact integer arithmetic (the primary test vehicle -- equality-based
checks need no tolerances), float64 signals serve the noise tooling.
``wht_bruteforce`` evaluates the defining double sum directly and is the
independent oracle every fast path is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bits import is_power_of_two, sign_array
from .errors import (
    BadArguments,
    InexactDivision,
    OracleTooLarge,
    OverflowBoundError,
)

# Brute force costs O(4**n); anything bigger than this is almost certainly
# a mistake rather than a verification run.
ORACLE_LIMIT_DEFAULT = 14

_INT64_LIMIT = 1 << 63

# The kernel's working set: stages below TILE_LOG2 run on one 2**TILE_LOG2
# tile at a time (512 KiB of int64), sized to stay in a per-core L2 cache.
TILE_LOG2 = 16
TILE_ELEMS = 1 << TILE_LOG2


class Domain(str, enum.Enum):
    """Equals, prints and serialises as its sidecar string; ``Domain(value)``
    is the one validation of a domain name."""

    TIME = "time"
    WALSH = "walsh"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def _missing_(cls, value):
        raise BadArguments(f"bad domain {value!r}")


@dataclass
class Signal:
    """A 1-D array of 2**n samples tagged with its current domain.

    dtype must be int64 (exact) or float64. A signal keeps one uniform
    scalar kind; mixing is not supported.
    """

    data: np.ndarray
    domain: Domain = Domain.TIME

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 1:
            raise BadArguments("signal data must be one-dimensional")
        if not is_power_of_two(arr.shape[0]):
            raise BadArguments(
                f"signal length {arr.shape[0]} is not a power of two"
            )
        if arr.dtype not in (np.dtype(np.int64), np.dtype(np.float64)):
            raise BadArguments(
                f"unsupported dtype {arr.dtype}; use int64 or float64"
            )
        # The in-place kernel works on reshaped views, which need
        # contiguous storage.
        self.data = np.ascontiguousarray(arr)

    @property
    def log2_dim(self) -> int:
        return int(self.data.shape[0]).bit_length() - 1

    @property
    def dim(self) -> int:
        return int(self.data.shape[0])

    @property
    def is_exact(self) -> bool:
        return self.data.dtype == np.int64

    def copy(self) -> "Signal":
        return Signal(self.data.copy(), self.domain)


def check_magnitude_bound(data: np.ndarray, log2_dim: int) -> None:
    """Enforce M * 2**n < 2**63 for int64 data (M = max absolute value).

    Checked once at entry: every intermediate of an n-stage transform is
    bounded by M * 2**n, so this single test makes the whole run
    overflow-free without per-addition checks.
    """
    if data.dtype != np.int64 or data.size == 0:
        return
    magnitude = max(int(data.max()), -int(data.min()))
    if magnitude << log2_dim >= _INT64_LIMIT:
        raise OverflowBoundError(
            f"max |x| = {magnitude} with n = {log2_dim} can overflow int64; "
            f"need |x| * 2**n < 2**63"
        )


def _butterfly(lo: np.ndarray, hi: np.ndarray, tmp: np.ndarray) -> None:
    """(lo, hi) <- (lo + hi, lo - hi) in place; ``tmp`` has lo's shape."""
    np.subtract(lo, hi, out=tmp)
    lo += hi
    hi[...] = tmp


def _row_stages(flat: np.ndarray, first: int, last: int, tmp: np.ndarray) -> None:
    """Stages first .. last-1 (stride 2**k) over a contiguous 1-D array."""
    for k in range(first, last):
        pairs = flat.reshape(-1, 2, 1 << k)
        lo = pairs[:, 0, :]
        _butterfly(lo, pairs[:, 1, :], tmp[: lo.size].reshape(lo.shape))


def _butterfly_slices(lo: np.ndarray, hi: np.ndarray, tmp: np.ndarray) -> None:
    """Butterfly two equal-length 1-D views, ``tmp.size`` elements at a time."""
    step = tmp.size
    for off in range(0, lo.size, step):
        end = min(off + step, lo.size)
        _butterfly(lo[off:end], hi[off:end], tmp[: end - off])


def butterfly(lo: np.ndarray, hi: np.ndarray) -> None:
    """Replace (lo, hi) by (lo + hi, lo - hi) elementwise, in place.

    ``lo`` and ``hi`` are disjoint 1-D arrays of one length and dtype.
    The difference passes through a per-call scratch of at most half a
    tile, so memory use does not grow with the length and concurrent
    callers share nothing.
    """
    tmp = np.empty(min(lo.size, TILE_ELEMS // 2), dtype=lo.dtype)
    _butterfly_slices(lo, hi, tmp)


def fwht_array(buf: np.ndarray) -> int:
    """Transform ``buf`` (length 2**n, contiguous) in place.

    Stage k pairs elements at stride 2**k and replaces (a, b) with
    (a + b, a - b). Returns the number of butterflies executed, which is
    always n * 2**(n-1).

    Stages below TILE_LOG2 run tile by tile. A tile of 2**t elements
    (t = min(n, TILE_LOG2)) is viewed as a 2**(t-h) x 2**h matrix,
    h = t // 2, whose columns are the low h index bits. Copied transposed
    into scratch, stages 0 .. h-1 become row stages there; copied back,
    stages h .. t-1 are row stages in place. Every numpy call then runs
    inner loops of at least 2**(t-h) elements over cache-resident data.
    Stages t .. n-1 pair half-tile slices. Each butterfly sees the same
    operands as in the plain stage-by-stage loop, so int64 and float64
    output is bit-identical to it. Scratch is 1.5 tiles, allocated per
    call so concurrent callers on disjoint buffers are safe.
    """
    if not buf.flags.c_contiguous:
        raise BadArguments("in-place transform needs a contiguous buffer")
    dim = int(buf.shape[0])
    n = dim.bit_length() - 1
    t = min(n, TILE_LOG2)
    h = t // 2
    tile = np.empty((1 << h, 1 << (t - h)), dtype=buf.dtype)
    tmp = np.empty((1 << t) >> 1, dtype=buf.dtype)
    flat = tile.reshape(-1)
    for start in range(0, dim, 1 << t):
        block = buf[start : start + (1 << t)]
        matrix = block.reshape(1 << (t - h), 1 << h)
        np.copyto(tile, matrix.T)
        _row_stages(flat, t - h, t, tmp)
        np.copyto(matrix, tile.T)
        _row_stages(block, h, t, tmp)
    for k in range(t, n):
        stride = 1 << k
        for base in range(0, dim, stride << 1):
            _butterfly_slices(
                buf[base : base + stride], buf[base + stride : base + (stride << 1)], tmp
            )
    return (n << n) >> 1


def fwht_inplace(sig: Signal) -> Signal:
    """Fast in-place WHT; flips the domain tag and returns its argument."""
    check_magnitude_bound(sig.data, sig.log2_dim)
    fwht_array(sig.data)
    sig.domain = Domain.WALSH if sig.domain == Domain.TIME else Domain.TIME
    return sig


def wht_bruteforce(sig: Signal, limit: int = ORACLE_LIMIT_DEFAULT) -> Signal:
    """Reference transform by the defining double sum; input unchanged.

    y_i = sum_j (-1)**<i,j> x_j where <i,j> is the parity of popcount(i & j).
    Costs O(4**n); refuses to run above ``limit``.
    """
    n = sig.log2_dim
    if n > limit:
        raise OracleTooLarge(f"n = {n} exceeds the oracle limit {limit}")
    check_magnitude_bound(sig.data, n)
    x = sig.data
    out = np.empty_like(x)
    indices = np.arange(1 << n, dtype=np.int64)
    for i in range(1 << n):
        signs = sign_array(np.bitwise_and(np.int64(i), indices))
        out[i] = signs @ x
    return Signal(out, Domain.WALSH if sig.domain == Domain.TIME else Domain.TIME)


def inverse_wht_inplace(sig: Signal) -> Signal:
    """Inverse transform in place: forward WHT followed by division by 2**n.

    int64 signals must produce exactly divisible intermediates; otherwise
    the buffer is restored and InexactDivision raised. float64 scaling by
    2**-n is exact (power of two).
    """
    if sig.domain != Domain.WALSH:
        raise BadArguments("inverse transform expects a Walsh-domain signal")
    n = sig.log2_dim
    dim = 1 << n
    check_magnitude_bound(sig.data, n)
    fwht_array(sig.data)
    if sig.is_exact:
        if np.any(sig.data % dim != 0):
            # Undo: the kernel is self-inverse up to 2**n, and that factor
            # divides exactly, so the original buffer is recoverable.
            fwht_array(sig.data)
            sig.data //= dim
            raise InexactDivision(
                f"coefficients are not all divisible by 2**{n}"
            )
        sig.data //= dim
    else:
        sig.data *= 2.0 ** -n
    sig.domain = Domain.TIME
    return sig


def parseval_energy(sig: Signal):
    """Sum of squared components.

    int64 signals accumulate in arbitrary-precision Python ints, so the
    result is exact even when it exceeds 2**63. Returns int for exact
    signals, float otherwise.
    """
    if sig.is_exact:
        return sum(v * v for v in sig.data.tolist())
    return float(np.dot(sig.data, sig.data))
