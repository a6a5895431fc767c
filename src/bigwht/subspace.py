"""Random GF(2) linear space reduction: fold a 2**d_in signal down to
2**d_out and relate the folded Walsh coefficients back to the original.

Folding sums time-domain samples over the preimages of a full-rank
binary map L, so the folded transform satisfies
WHT(fold(x, L))[i'] = WHT(x)[L^T i'] -- every folded coefficient is an
original coefficient whose index lies in the row space of L. A fleet of
machines with independent random maps therefore covers a predictable
fraction of all coefficient indices, which ``coverage_simulate``
measures empirically.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dataset
from .bits import parity_array
from .core import Domain, Signal
from .errors import BadArguments, BadDims, BadMetadata, DimMismatch
from .parallel import usable_cpus


@dataclass(frozen=True)
class LinearMap:
    """Full-rank d_out x d_in binary matrix.

    rows[r, c] is the coefficient of input index-bit c in output bit r
    (bit 0 least significant).
    """

    rows: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.rows, dtype=np.uint8)
        if arr.ndim != 2:
            raise BadDims("map must be a 2-D binary matrix")
        if arr.shape[0] < 1 or arr.shape[1] < arr.shape[0]:
            raise BadDims(
                f"need 1 <= d_out <= d_in, got {arr.shape[0]}x{arr.shape[1]}"
            )
        if arr.max(initial=0) > 1:
            raise BadDims("map entries must be 0 or 1")
        if gf2_rank(arr) != arr.shape[0]:
            raise BadDims("map must have full rank over GF(2)")
        object.__setattr__(self, "rows", arr)

    @property
    def d_out(self) -> int:
        return self.rows.shape[0]

    @property
    def d_in(self) -> int:
        return self.rows.shape[1]

    def row_masks(self) -> np.ndarray:
        """Row r as an integer bitmask over input bits."""
        weights = (np.int64(1) << np.arange(self.d_in, dtype=np.int64))
        return (self.rows.astype(np.int64) * weights).sum(axis=1)

    def column_masks(self) -> np.ndarray:
        """Column c as an integer bitmask over output bits."""
        weights = (np.int64(1) << np.arange(self.d_out, dtype=np.int64))
        return (self.rows.astype(np.int64).T * weights).sum(axis=1)


def gf2_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2): the rows as integer bitmasks, reduced to echelon
    form by ``_echelon_masks``."""
    packed = np.packbits(np.asarray(matrix, dtype=np.uint8) % 2, axis=1,
                         bitorder="little")
    return len(_echelon_masks([int.from_bytes(row.tobytes(), "little")
                               for row in packed]))


def random_full_rank(d_in: int, d_out: int, seed) -> LinearMap:
    """Uniform full-rank map by rejection; deterministic under seed.

    A uniform d_out x d_in binary matrix with d_out <= d_in is full rank
    with probability > prod(1 - 2**-(d_in - i)) > 0.288, so the expected
    number of draws is small.
    """
    if d_out < 1 or d_in < d_out:
        raise BadDims(f"need 1 <= d_out <= d_in, got {d_out}, {d_in}")
    rng = np.random.default_rng(seed)
    while True:
        candidate = rng.integers(0, 2, size=(d_out, d_in), dtype=np.uint8)
        try:
            return LinearMap(candidate)  # validates the rank once
        except BadDims:
            continue


def apply_map(lmap: LinearMap, index: int) -> int:
    """L . j for one input index (bit r of the result = <row_r, j>)."""
    out = 0
    for r, mask in enumerate(lmap.row_masks().tolist()):
        out |= (bin(index & mask).count("1") & 1) << r
    return out


def apply_map_array(lmap: LinearMap, indices: np.ndarray) -> np.ndarray:
    """Vectorized L . j over an int64 index array."""
    out = np.zeros(indices.shape, dtype=np.int64)
    for r, mask in enumerate(lmap.row_masks().tolist()):
        out |= parity_array(indices & np.int64(mask)) << r
    return out


def folded_coefficient_index(lmap: LinearMap, i_reduced: int) -> int:
    """Original coefficient index L^T i' addressed by folded index i'."""
    if i_reduced < 0 or i_reduced >= 1 << lmap.d_out:
        raise BadDims(
            f"i_reduced {i_reduced} outside [0, 2**{lmap.d_out})"
        )
    out = 0
    for c, mask in enumerate(lmap.column_masks().tolist()):
        out |= (bin(i_reduced & mask).count("1") & 1) << c
    return out


def _subset_xor(masks: np.ndarray) -> np.ndarray:
    """Entry j is the XOR of the masks selected by the bits of j.

    Built by doubling: the second half of each prefix is the first half
    XORed with the next mask, so 2**len(masks) entries cost one pass.
    """
    out = np.zeros(1 << len(masks), dtype=np.int64)
    for r, mask in enumerate(masks.tolist()):
        size = 1 << r
        np.bitwise_xor(out[:size], np.int64(mask), out=out[size : 2 * size])
    return out


def row_space(lmap: LinearMap) -> np.ndarray:
    """All 2**d_out original indices {L^T i'}, in folded-index order.

    Entry i' is the XOR of the rows of L selected by the bits of i'.
    """
    return _subset_xor(lmap.row_masks())


def image_table(lmap: LinearMap, log2_count: int) -> np.ndarray:
    """L . j for j = 0 .. 2**log2_count - 1, in index order.

    Entry j is the XOR of the columns of L selected by the bits of j, so
    the table costs one XOR per entry instead of d_out parity passes.
    """
    return _subset_xor(lmap.column_masks()[:log2_count])


def fold(sig: Signal, lmap: LinearMap) -> Signal:
    """x'[j'] = sum of x[j] over the preimage L.j = j'; mass-preserving.

    Runs ``fold_dataset``'s block routine over slices of ``sig.data``
    of the same ``dataset.STREAM_BLOCK_ELEMS`` elements, so the two
    return the same bytes.
    """
    if sig.domain != Domain.TIME:
        raise BadArguments("fold is defined on time-domain signals")
    if sig.log2_dim != lmap.d_in:
        raise DimMismatch(
            f"signal has n={sig.log2_dim}, map expects d_in={lmap.d_in}"
        )
    data = sig.data
    block = min(dataset.STREAM_BLOCK_ELEMS, data.shape[0])

    def slices():
        return lambda start: data[start : start + block]

    return Signal(_fold_blocks(slices, data.shape[0], block, lmap, data.dtype),
                  Domain.TIME)


def fold_dataset(ds: dataset.DatasetFile, lmap: LinearMap) -> np.ndarray:
    """Streaming fold: one linear scan of the source dataset, accumulating
    into an in-memory array of 2**d_out elements.

    Blocks of ``dataset.STREAM_BLOCK_ELEMS``, a power of two, start at
    multiples of their length, so start + off = start XOR off and
    L . (start + off) = L . start XOR L . off: one offset table of block
    length serves every block. When 8 * 2**d_out <= block, each block
    sums into a 2**d_out partial through that table, and the partial
    joins the result by one gather at i XOR L . start; otherwise the
    block's values go straight into the result at table XOR L . start.

    int64 blocks are split into contiguous ranges, one per usable CPU
    (at most one per block). Each worker reads into its own reused
    buffer and sums into its own array, and the arrays are added in
    range order; int64 sums wrap, so the bytes do not depend on the
    worker count. A worker that fails stops the others before their
    next block read, and the failure of the first range that failed is
    raised once the pool has shut down. float64 folds run on one worker
    so that their rounding is fixed: within a block values are added in
    index order (into the partial, or straight into the result), and
    blocks in block order.
    Memory: per worker one block buffer plus two or three arrays of
    2**d_out elements (or one of block length without partials).
    """
    if ds.domain != "time":
        raise BadArguments(f"{ds.path} is not time-domain")
    if ds.log2_dim != lmap.d_in:
        raise DimMismatch(
            f"dataset has n={ds.log2_dim}, map expects d_in={lmap.d_in}"
        )
    block = min(dataset.STREAM_BLOCK_ELEMS, ds.dim)

    def reads_into_own_buffer():
        buf = np.empty(block, dtype=ds.dtype)
        return lambda start: ds.read_block(start, block, out=buf)

    return _fold_blocks(reads_into_own_buffer, ds.dim, block, lmap, ds.dtype)


def _fold_blocks(make_reader, dim: int, block: int, lmap: LinearMap,
                 dtype) -> np.ndarray:
    """The fold behind ``fold`` and ``fold_dataset``.

    ``make_reader()`` runs once per worker and returns read(start), which
    gives the ``block`` elements from ``start`` as an array of ``dtype``.
    """
    size = 1 << lmap.d_out
    # np.add.at takes its fast path only when the accumulator and the
    # values share one dtype descriptor, so accumulate in plain ones.
    acc_dtype = np.dtype(np.int64 if dtype.kind == "i" else np.float64)
    b = block.bit_length() - 1
    table = image_table(lmap, b)  # L . off
    highs = _subset_xor(lmap.column_masks()[b:])  # L . start, start = i * block
    use_partials = 8 * size <= block
    stop = threading.Event()  # set by a failing worker; the others end early

    def fold_range(blocks: range) -> np.ndarray:
        read = make_reader()
        acc = np.zeros(size, dtype=acc_dtype)
        if use_partials:
            partial = np.empty(size, dtype=acc_dtype)
            gathered = np.empty(size, dtype=acc_dtype)
            index = np.arange(size, dtype=np.int64)
            shifted = np.empty(size, dtype=np.int64)
        else:
            targets = np.empty(block, dtype=np.int64)
        try:
            for i in blocks:
                if stop.is_set():
                    break
                chunk = read(i * block)
                if use_partials:
                    partial.fill(0)
                    np.add.at(partial, table, chunk)
                    np.bitwise_xor(index, highs[i], out=shifted)
                    np.take(partial, shifted, out=gathered)
                    acc += gathered
                else:
                    np.bitwise_xor(table, highs[i], out=targets)
                    np.add.at(acc, targets, chunk)
        except BaseException:
            stop.set()
            raise
        return acc

    count = dim // block
    workers = min(usable_cpus(), count) if acc_dtype.kind == "i" else 1
    ranges = [range(count * w // workers, count * (w + 1) // workers)
              for w in range(workers)]
    if workers == 1:
        return fold_range(ranges[0])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fold_range, r) for r in ranges]
    # The pool has shut down, so a worker's exception surfaces here; the
    # partial sums of the workers it stopped are dropped with the raise.
    out = futures[0].result()
    for future in futures[1:]:
        out += future.result()
    return out


@dataclass
class CoverageResult:
    d_in: int
    d_out: int
    machines: int
    trials: int
    per_trial: list[float]
    mean: float
    model_prediction: float


def coverage_model(d_in: int, d_out: int, machines: int) -> float:
    """1 - (1 - p)**P where p is the fraction of nonzero indices one
    random subspace covers."""
    p = ((1 << d_out) - 1) / ((1 << d_in) - 1)
    return 1.0 - (1.0 - p) ** machines


def coverage_simulate(
    d_in: int,
    d_out: int,
    machines: int,
    trials: int,
    seed: int = 0,
    sample_count: int | None = None,
) -> CoverageResult:
    """Empirical fraction of nonzero coefficient indices covered by a
    fleet of machines holding independent random subspaces.

    Exhaustive over all 2**d_in indices up to d_in = 24; beyond that pass
    sample_count to estimate coverage over a random sample of nonzero
    indices (membership tested against each map's row space). Machine
    maps are drawn sequentially per trial, so runs with larger P extend
    smaller ones under the same seed; index 0 is always covered and is
    excluded from the fraction.
    """
    if d_out < 1 or d_in < d_out:
        raise BadDims(f"need 1 <= d_out <= d_in, got {d_out}, {d_in}")
    if d_in > 63:
        raise BadDims(f"d_in={d_in} exceeds the 63 bits of an int64 index")
    if machines < 1 or trials < 1:
        raise BadArguments("machines and trials must be >= 1")
    if sample_count is not None and sample_count < 1:
        raise BadArguments(f"sample_count must be >= 1, got {sample_count}")
    if sample_count is None and d_in > 24:
        raise BadDims(
            f"d_in={d_in} too large to enumerate; pass sample_count to sample"
        )
    per_trial = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        maps = [random_full_rank(d_in, d_out, rng) for _ in range(machines)]
        if sample_count is None:
            covered = np.zeros(1 << d_in, dtype=bool)
            for lmap in maps:
                covered[row_space(lmap)] = True
            fraction = (int(covered.sum()) - 1) / ((1 << d_in) - 1)
        else:
            fraction = _sampled_coverage(maps, d_in, sample_count, rng)
        per_trial.append(fraction)
    return CoverageResult(
        d_in=d_in,
        d_out=d_out,
        machines=machines,
        trials=trials,
        per_trial=per_trial,
        mean=float(np.mean(per_trial)),
        model_prediction=coverage_model(d_in, d_out, machines),
    )


def _sampled_coverage(
    maps: list[LinearMap], d_in: int, sample_count: int, rng
) -> float:
    """Row-space membership over sampled nonzero indices: reduce each
    sample by an echelon basis of the map's rows; zero remainder means
    covered."""
    samples = rng.integers(
        1, (1 << d_in) - 1, size=sample_count, dtype=np.int64, endpoint=True
    )
    covered = np.zeros(sample_count, dtype=bool)
    for lmap in maps:
        basis = _echelon_masks(lmap.row_masks().tolist())
        residue = samples.copy()
        for mask in basis:
            top_bit = np.int64(1 << (int(mask).bit_length() - 1))
            hit = (residue & top_bit) != 0
            residue[hit] ^= np.int64(mask)
        covered |= residue == 0
    return float(covered.mean())


def _echelon_masks(masks: list[int]) -> list[int]:
    """Reduce row bitmasks to echelon form (distinct leading bits)."""
    basis: list[int] = []
    for mask in masks:
        for b in basis:
            if mask.bit_length() == b.bit_length():
                mask ^= b
        if mask:
            basis.append(mask)
            basis.sort(key=int.bit_length, reverse=True)
    return basis


def save_map(lmap: LinearMap, path: str) -> None:
    """Text format: d_out lines of d_in characters; character c of a line
    is the coefficient of input bit c (bit 0 first)."""
    with open(path, "w", encoding="utf-8") as f:
        for row in lmap.rows:
            f.write("".join("1" if v else "0" for v in row.tolist()) + "\n")


def load_map(path: str) -> LinearMap:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    except OSError as exc:
        raise BadMetadata(f"cannot read map file {path}: {exc}") from exc
    if not lines:
        raise BadMetadata(f"map file {path} is empty")
    width = len(lines[0])
    rows = []
    for line in lines:
        if len(line) != width or set(line) - {"0", "1"}:
            raise BadMetadata(f"map file {path}: bad row {line!r}")
        rows.append([1 if ch == "1" else 0 for ch in line])
    return LinearMap(np.array(rows, dtype=np.uint8))
