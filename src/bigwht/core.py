"""In-place fast Walsh-Hadamard transform and its verification toolkit.

The package supports two scalar kinds: int64 signals are transformed with
exact integer arithmetic (the primary test vehicle -- equality-based
checks need no tolerances), float64 signals serve the noise tooling.
The forward kernel works in place with one tile of scratch on every
path: an int64 tile whose max |x| times its length stays below 2**53
runs as exact float64 Hadamard products, each transforming the top
index bits of the tile and rotating them to the bottom so that its
output is contiguous and numpy keeps its BLAS path; float64 data and
larger int64 tiles run as radix-2 butterflies. Stages above the tile
run two at a time as radix-4 sweeps over half-tile slices through two
temporaries, the two halves of the same scratch: half the numpy calls
of quarter-tile slices, with the same memory. The int64 inverse
divides by 2**n with a bit test and an arithmetic shift, so neither
allocates a full-size array. ``wht_bruteforce`` evaluates the defining
double sum directly and is the independent oracle every fast path is
checked against.
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

# float64 holds every integer of magnitude below 2**53 exactly.
_FLOAT_EXACT_LOG2 = 53

# Largest radix of an int64 tile's product step, H_{2**r} with r <= 4. A
# step costs 2**r multiply-adds per element: radix 16 covers a 2**16 tile
# in four steps at 64 per element, where radix 256 would take two at 512.
_PRODUCT_RADIX_LOG2 = 4

# Sylvester-Hadamard matrices H_{2**r}, entry (k, j) = (-1)**popcount(k & j),
# built once so that no product step allocates one.
_HADAMARD = [
    sign_array(np.bitwise_and.outer(np.arange(1 << r), np.arange(1 << r)))
    .astype(np.float64)
    for r in range(_PRODUCT_RADIX_LOG2 + 1)
]

# Rows of the tile matrix per product, each a contiguous output row of
# 2**r values. 1024 x 16 x 16 = 2**18 multiply-adds is the largest
# product numpy's bundled OpenBLAS runs on the calling thread; a larger
# one starts OpenBLAS's own thread pool, which then contends with the
# kernel's threads.
_PRODUCT_ROWS = 1024


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
    overflow-free without per-addition checks. The maximum and minimum
    are taken together tile by tile, one sweep over RAM.
    """
    if data.dtype != np.int64 or data.size == 0:
        return
    magnitude = 0
    for start in range(0, data.size, TILE_ELEMS):
        part = data[start : start + TILE_ELEMS]
        magnitude = max(magnitude, int(part.max()), -int(part.min()))
    check_magnitude(magnitude, log2_dim)


def check_magnitude(magnitude: int, log2_dim: int) -> None:
    """Raise OverflowBoundError unless magnitude * 2**log2_dim < 2**63.

    The test behind ``check_magnitude_bound``, for callers that know the
    maximum absolute value without sweeping an array.
    """
    if magnitude << log2_dim >= _INT64_LIMIT:
        raise OverflowBoundError(
            f"max |x| = {magnitude} with n = {log2_dim} can overflow int64; "
            f"need |x| * 2**n < 2**63"
        )


def _quad(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
          s0: np.ndarray, s1: np.ndarray) -> None:
    """Stages k and k + 1 over four equal 1-D views 2**k apart, in place.

    (a, b, c, d) <- (a+b + c+d, a-b + c-d, a+b - (c+d), a-b - (c-d)):
    stage k's sum and difference of (a, b) go to the scratch views ``s0``
    and ``s1``, those of (c, d) into a and b, then stage k + 1 writes all
    four outputs, so every addition has the operands of the plain
    stage-by-stage loop.
    """
    np.add(a, b, out=s0)
    np.subtract(a, b, out=s1)
    np.add(c, d, out=a)
    np.subtract(c, d, out=b)
    np.subtract(s0, a, out=c)
    np.add(s0, a, out=a)
    np.subtract(s1, b, out=d)
    np.add(s1, b, out=b)


def _radix_split(t: int) -> list[int]:
    """Split t tile bits into an even number (at least two) of product
    steps of at most _PRODUCT_RADIX_LOG2 bits each, as evenly as possible:
    16 = 4+4+4+4, 13 = 4+3+3+3, 3 = 2+1, 1 = 1+0."""
    steps = 2 * max(1, -(-t // (2 * _PRODUCT_RADIX_LOG2)))
    base, extra = divmod(t, steps)
    return [base + 1] * extra + [base] * (steps - extra)


def _tile_products(tile: np.ndarray, scratch: np.ndarray,
                   radices: list[int]) -> None:
    """Transform an int64 tile exactly as float64 Hadamard products.

    The caller has checked max |x| * tile.size < 2**53, so every partial
    sum is an integer float64 holds exactly, whatever order BLAS sums in.
    Each constant-geometry step transforms the top r index bits with one
    H_{2**r} product and rotates them to the bottom; the radices sum to
    log2(tile.size), so the tile ends in natural order. In that direction
    the product's ``out`` is C-contiguous, which keeps numpy's matmul on
    its BLAS path; the opposite direction, low bits rotated to the top,
    writes a strided ``out`` and runs about twice as slow. The steps
    ping-pong between the float64 ``scratch`` and the tile's own memory
    viewed as float64; their count is even, so the result ends in the
    scratch and one cast brings it back.
    """
    src, dst = scratch, tile.view(np.float64)
    np.copyto(src, tile)
    for r in radices:
        radix = 1 << r
        rows = min(tile.size >> r, _PRODUCT_ROWS)
        np.matmul(src.reshape(radix, -1, rows).transpose(1, 2, 0),
                  _HADAMARD[r], out=dst.reshape(-1, rows, radix))
        src, dst = dst, src
    np.copyto(tile, src, casting="unsafe")


def butterfly(lo: np.ndarray, hi: np.ndarray,
              tmp: np.ndarray | None = None) -> None:
    """Replace (lo, hi) by (lo + hi, lo - hi) elementwise, in place.

    ``lo`` and ``hi`` are disjoint 1-D arrays of one length and dtype.
    The difference passes through ``tmp``, a 1-D scratch of their dtype,
    ``tmp.size`` elements at a time. Without it the call allocates its
    own of at most half a tile, so memory use does not grow with the
    length and concurrent callers share nothing.
    """
    if tmp is None:
        tmp = np.empty(min(lo.size, TILE_ELEMS // 2), dtype=lo.dtype)
    step = tmp.size
    for off in range(0, lo.size, step):
        end = min(off + step, lo.size)
        diff = np.subtract(lo[off:end], hi[off:end], out=tmp[: end - off])
        lo[off:end] += hi[off:end]
        hi[off:end] = diff


def fwht_array(buf: np.ndarray) -> int:
    """Transform ``buf`` (length 2**n, contiguous) in place.

    Stage k pairs elements at stride 2**k and replaces (a, b) with
    (a + b, a - b). Returns the number of butterflies executed, which is
    always n * 2**(n-1).

    Stages below TILE_LOG2 run tile by tile, on tiles of 2**t elements
    (t = min(n, TILE_LOG2)), in constant geometry (Pease). An int64 tile
    whose max |x| is below 2**(53 - t) runs as float64 Hadamard products
    (``_tile_products``): every partial sum of its t stages is then an
    integer below 2**53, which float64 holds exactly, so the result is
    the exact int64 one, bit for bit. Each product step transforms the
    top index bits and rotates them to the bottom, so that it writes a
    contiguous output and numpy runs it through BLAS; each product is at
    most 1024 x 16 x 16 multiply-adds, small enough that OpenBLAS runs it
    on the calling thread. float64 buffers, whose contract is bit-identity
    with the stage-by-stage loop that BLAS's summation order would
    break, and int64 tiles at or above the bound run radix-2 stages:
    each butterflies neighbours 2i, 2i + 1 of the source into slots i
    and i + 2**(t-1) of the destination, two 1-D numpy calls, and source
    and destination swap between the tile and one tile of scratch. A
    stage rotates the index bits right by one, so stage s pairs the
    elements that differ in bit s, and after t stages the tile is back
    in natural order (in the scratch when t is odd, copied back once).
    Stages t .. n-1 run two at a time as radix-4 sweeps over four
    half-tile slices 2**k apart through two temporaries, the halves of
    the scratch (``_quad``): half the numpy calls of quarter-tile slices
    through four, with the same one tile of scratch. A single radix-2
    sweep over half-tile slices follows when n - t is odd. Each
    butterfly there sees the same operands as in the plain
    stage-by-stage loop, so int64 and float64 output is bit-identical to
    that loop. Scratch is one tile on every path, allocated per call so
    concurrent callers on disjoint buffers are safe.
    """
    if not buf.flags.c_contiguous:
        raise BadArguments("in-place transform needs a contiguous buffer")
    dim = int(buf.shape[0])
    n = dim.bit_length() - 1
    t = min(n, TILE_LOG2)
    size = 1 << t
    half = size >> 1
    scratch = np.empty(size, dtype=buf.dtype)
    products = buf.dtype == np.int64
    radices = _radix_split(t)
    exact_below = 1 << (_FLOAT_EXACT_LOG2 - t)
    for start in range(0, dim, size):
        tile = buf[start : start + size]
        if products and max(int(tile.max()), -int(tile.min())) < exact_below:
            _tile_products(tile, scratch.view(np.float64), radices)
            continue
        src, dst = tile, scratch
        for _ in range(t):
            np.add(src[0::2], src[1::2], out=dst[:half])
            np.subtract(src[0::2], src[1::2], out=dst[half:])
            src, dst = dst, src
        if t & 1:
            np.copyto(dst, src)
    s0, s1 = scratch[:half], scratch[half:]
    k = t
    while k + 1 < n:
        stride = 1 << k
        for base in range(0, dim, stride << 2):
            for off in range(base, base + stride, half):
                a, b, c, d = (buf[off + i * stride : off + i * stride + half]
                              for i in range(4))
                _quad(a, b, c, d, s0, s1)
        k += 2
    if k < n:
        stride = 1 << k
        for base in range(0, dim, stride << 1):
            butterfly(buf[base : base + stride],
                      buf[base + stride : base + (stride << 1)], s0)
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
    the buffer is restored and InexactDivision raised. Division needs no
    int64 division and no full-size temporary: in two's complement x is a
    multiple of 2**n exactly when its low n bits are clear, which one OR
    reduction over the buffer tests, and then x >> n is x / 2**n. float64
    scaling by 2**-n is exact (power of two).
    """
    if sig.domain != Domain.WALSH:
        raise BadArguments("inverse transform expects a Walsh-domain signal")
    n = sig.log2_dim
    check_magnitude_bound(sig.data, n)
    fwht_array(sig.data)
    if sig.is_exact:
        if int(np.bitwise_or.reduce(sig.data)) & ((1 << n) - 1):
            # Undo: the kernel is self-inverse up to 2**n, and that factor
            # divides exactly, so the original buffer is recoverable.
            fwht_array(sig.data)
            sig.data >>= n
            raise InexactDivision(
                f"coefficients are not all divisible by 2**{n}"
            )
        sig.data >>= n
    else:
        sig.data *= 2.0 ** -n
    sig.domain = Domain.TIME
    return sig


def parseval_energy(sig: Signal):
    """Sum of squared components.

    int64 signals accumulate in arbitrary-precision Python ints, so the
    result is exact even when it exceeds 2**63. They are converted one
    tile at a time: a Python int costs about 40 bytes, so converting the
    whole array would hold five times its size. Returns int for exact
    signals, float otherwise.
    """
    if sig.is_exact:
        return sum(v * v for start in range(0, sig.data.size, TILE_ELEMS)
                   for v in sig.data[start : start + TILE_ELEMS].tolist())
    return float(np.dot(sig.data, sig.data))
