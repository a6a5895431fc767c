"""Noisy sparse test signals, SNR accounting, and threshold extraction.

Signals are planted in the Walsh domain (coefficients at known indices)
and brought to the time domain by one forward transform of the
amplitudes scaled by 2**-n, so the ground truth for extraction tests is
exact by construction. Additive time-domain noise of variance sigma**2
turns into approximately i.i.d. Walsh coefficients of variance
2**n * sigma**2 -- no Gaussian assumption needed, which is why Uniform
and Rademacher kinds are first-class here. ``gen`` and
``noise_walsh_variance_check`` draw their noise from one recipe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import dataset
from .core import Domain, Signal, check_magnitude, fwht_array, parseval_energy
from .errors import BadArguments, BadSpec


# Elements per int64 -> float64 addition in gen (see _add_slices).
_CAST_SLICE = 1 << 12


class NoiseKind(enum.Enum):
    NONE = "none"
    UNIFORM = "uniform"
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class NoisySignalSpec:
    """Plan for a sparse signal: planted Walsh coefficients plus noise.

    support maps distinct indices below 2**log2_dim to amplitudes. sigma
    is the per-sample standard deviation of the time-domain noise.
    """

    log2_dim: int
    support: tuple[tuple[int, float], ...]
    noise_kind: NoiseKind = NoiseKind.NONE
    sigma: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.log2_dim < 60:
            # At n >= 60 the 8 * 2**n bytes of one array exceed numpy's
            # largest array, and numpy raises a bare ValueError.
            raise BadSpec(f"log2_dim must lie in [0, 60), got {self.log2_dim}")
        dim = 1 << self.log2_dim
        if len(self.support) > dim:
            raise BadSpec("support larger than the signal dimension")
        indices = [i for i, _ in self.support]
        if len(set(indices)) != len(indices):
            raise BadSpec("support indices must be distinct")
        if any(i < 0 or i >= dim for i in indices):
            raise BadSpec(f"support indices must lie in [0, {dim})")
        for _, amp in self.support:
            if not isinstance(amp, (int, float)) or not math.isfinite(amp):
                raise BadSpec(f"amplitude {amp!r} is not a finite number")
        if not 0 <= self.sigma < math.inf:
            raise BadSpec(f"sigma must be finite and >= 0, got {self.sigma}")
        if not isinstance(self.noise_kind, NoiseKind):
            raise BadSpec(f"unknown noise kind {self.noise_kind!r}")


@dataclass
class SnrReport:
    snr_linear: float
    snr_db: float
    signal_energy: float
    noise_walsh_variance: float
    significance_threshold_db: float
    significance_threshold_db_base2: float
    infinite: bool = False


def _exact_support(spec: NoisySignalSpec) -> bool:
    dim = 1 << spec.log2_dim
    for _, amp in spec.support:
        if isinstance(amp, float) and not amp.is_integer():
            return False
        if int(amp) % dim:
            return False
    return True


def gen(spec: NoisySignalSpec) -> tuple[Signal, Signal]:
    """Build (clean, noisy) time-domain signals from the spec.

    The clean signal's Walsh coefficients equal the planted amplitudes.
    Each amplitude is scaled by 2**-n and one forward transform makes the
    signal, so no inverse and no division runs. Amplitudes that are
    integer multiples of 2**n stay exact int64: the scaling is a right
    shift by n, and the overflow bound is checked on the amplitudes and,
    before integer Rademacher noise is added, on max |clean| + sigma.
    Other amplitudes are scaled in float64, where a power of two scales
    exactly, and scaling before the sums keeps every intermediate within
    the amplitudes' range. The noisy signal is float64 unless the clean
    signal and a Rademacher sigma are both integers. Noise is built in
    place in the array returned as the noisy signal, so gen holds its two
    returned arrays (and one tile of kernel scratch while transforming);
    only Rademacher noise with a fractional sigma briefly holds a third,
    its int64 signs. Deterministic under the spec's seed.
    """
    spec.validate()
    n = spec.log2_dim
    dim = 1 << n
    if _exact_support(spec):
        amps = [int(amp) for _, amp in spec.support]
        check_magnitude(max(map(abs, amps), default=0), n)
        data = np.zeros(dim, dtype=np.int64)
        for (idx, _), amp in zip(spec.support, amps):
            data[idx] = amp >> n
    else:
        data = np.zeros(dim, dtype=np.float64)
        for idx, amp in spec.support:
            data[idx] = float(amp) * 2.0 ** -n
    fwht_array(data)
    clean = Signal(data, Domain.TIME)

    if spec.noise_kind == NoiseKind.NONE or spec.sigma == 0:
        return clean, clean.copy()
    exact = (clean.is_exact and spec.noise_kind == NoiseKind.RADEMACHER
             and float(spec.sigma).is_integer())
    if exact:
        # int64 sums wrap silently, so the bound on the noisy signal,
        # max |clean| + sigma, is checked before the noise is added.
        check_magnitude(max(int(data.max()), -int(data.min()))
                        + int(spec.sigma), n)
    noise = _noise(np.random.default_rng(spec.seed), spec.noise_kind,
                   spec.sigma, dim, exact=exact)
    _add_slices(noise, clean.data)
    return clean, Signal(noise, Domain.TIME)


def _noise(rng: np.random.Generator, kind: NoiseKind, sigma: float, dim: int,
           exact: bool = False) -> np.ndarray:
    """``dim`` samples of zero-mean noise with standard deviation sigma.

    float64, except that Rademacher noise stays int64 when ``exact`` is
    set; sigma must then be an integer.
    """
    if kind == NoiseKind.RADEMACHER:
        # rng.integers(0, 2, dim) * 2 - 1, built in the one int64 array.
        signs = rng.integers(0, 2, dim)
        signs *= 2
        signs -= 1
        if exact:
            signs *= int(sigma)
            return signs
        return signs * float(sigma)
    if kind == NoiseKind.UNIFORM:
        half_width = sigma * math.sqrt(3.0)  # variance sigma**2
        return rng.uniform(-half_width, half_width, dim)
    if kind == NoiseKind.GAUSSIAN:
        return rng.normal(0.0, sigma, dim)
    if kind == NoiseKind.NONE:
        return np.zeros(dim)
    raise BadArguments(f"unknown noise kind {kind!r}")


def _add_slices(noise: np.ndarray, clean: np.ndarray) -> None:
    """``noise += clean``, slice by slice.

    Addition commutes, so for float64 noise this is
    ``clean.astype(float64) + noise`` bit for bit. numpy casts an int64
    operand through a buffer of up to 8192 elements per call; slices of
    half that keep the buffer at 32 KiB, so gen's memory beyond its two
    arrays stays under 64 KiB.
    """
    for start in range(0, noise.size, _CAST_SLICE):
        part = noise[start : start + _CAST_SLICE]
        part += clean[start : start + _CAST_SLICE]


def snr(sig: Signal, sigma: float) -> SnrReport:
    """SNR = |x^|**2 / (2**n * sigma'**2) with sigma'**2 = 2**n * sigma**2.

    Accepts the signal in either domain; the Walsh energy of a time-domain
    signal is 2**n times its time-domain energy (Parseval). sigma = 0 is
    reported as infinite SNR rather than raising.
    """
    if not 0 <= sigma < math.inf:
        raise BadArguments(f"sigma must be finite and >= 0, got {sigma}")
    n = sig.log2_dim
    dim = 1 << n
    energy = parseval_energy(sig)
    if sig.domain == Domain.TIME:
        energy = energy * dim
    energy = float(energy)
    thr_e = _threshold_db(n, 8.0 * math.log(2.0))
    thr_2 = _threshold_db(n, 8.0)
    noise_var = dim * sigma * sigma
    if not math.isfinite(noise_var):
        raise BadArguments(
            f"sigma = {sigma} with n = {n} makes the Walsh noise variance "
            f"2**n * sigma**2 overflow"
        )
    if sigma == 0:
        return SnrReport(
            snr_linear=math.inf,
            snr_db=math.inf,
            signal_energy=energy,
            noise_walsh_variance=0.0,
            significance_threshold_db=thr_e,
            significance_threshold_db_base2=thr_2,
            infinite=True,
        )
    linear = energy / (dim * noise_var)
    return SnrReport(
        snr_linear=linear,
        snr_db=-math.inf if linear == 0 else 10.0 * math.log10(linear),
        signal_energy=energy,
        noise_walsh_variance=noise_var,
        significance_threshold_db=thr_e,
        significance_threshold_db_base2=thr_2,
    )


def _threshold_db(n: int, numerator: float) -> float:
    return 10.0 * math.log10(numerator / (1 << n))


def significance_threshold_db(n: int, log_base: str = "e") -> float:
    """Cryptographically significant SNR floor: 10*log10(8 log 2 / 2**n).

    The logarithm base in "8 log 2" is read as natural by default (then
    8 log 2 = 5.545...); pass log_base="2" for the reading where it equals
    exactly 8.
    """
    if n < 1:
        raise BadArguments(f"n must be >= 1, got {n}")
    if log_base == "e":
        numerator = 8.0 * math.log(2.0)
    elif log_base == "2":
        numerator = 8.0
    else:
        raise BadArguments(f"log_base must be 'e' or '2', got {log_base!r}")
    return _threshold_db(n, numerator)


def extract_above(sig: Signal, tau) -> list[tuple[int, float]]:
    """All (index, coefficient) with |coefficient| >= tau, largest first.

    Ties in magnitude break by ascending index so output order is
    reproducible. The input must be Walsh-domain.
    """
    if sig.domain != Domain.WALSH:
        raise BadArguments("extraction expects a Walsh-domain signal")
    _check_tau(tau)
    hits: list[tuple[int, float]] = []
    _extract(sig.data, 0, tau, hits)
    hits.sort(key=lambda item: (-abs(item[1]), item[0]))
    return hits


def extract_above_dataset(
    ds: dataset.DatasetFile, tau
) -> list[tuple[int, float]]:
    """Streaming extraction over a Walsh-domain dataset, one
    ``dataset.STREAM_BLOCK_ELEMS`` block at a time, each read into the
    same reused buffer."""
    if ds.domain != "walsh":
        raise BadArguments(f"{ds.path} is not Walsh-domain")
    _check_tau(tau)
    hits: list[tuple[int, float]] = []
    block = min(dataset.STREAM_BLOCK_ELEMS, ds.dim)
    buf = np.empty(block, dtype=ds.dtype)
    for start in range(0, ds.dim, block):
        _extract(ds.read_block(start, block, out=buf), start, tau, hits)
    hits.sort(key=lambda item: (-abs(item[1]), item[0]))
    return hits


def _check_tau(tau) -> None:
    # tau != tau tests for NaN without converting: math.isnan raises on
    # ints too large for a float, such as 2**64.
    if tau != tau or tau < 0:
        raise BadArguments(f"tau must be a number >= 0, got {tau}")


def _extract(chunk: np.ndarray, base: int, tau, hits: list) -> None:
    # Signed bounds instead of |chunk| >= tau: no |x| array is made, and
    # int64's -2**63, which np.abs wraps to itself, is not missed.
    above = chunk >= tau
    above |= chunk <= -tau
    picked = np.nonzero(above)[0]
    exact = chunk.dtype.kind == "i"
    for off in picked.tolist():
        value = chunk[off]
        hits.append((base + off, int(value) if exact else float(value)))


def noise_walsh_variance_check(
    n: int,
    sigma: float,
    kind: NoiseKind,
    trials: int,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the per-coefficient Walsh variance of pure
    noise; converges to 2**n * sigma**2 for every zero-mean kind."""
    if trials < 1:
        raise BadArguments(f"trials must be >= 1, got {trials}")
    if not 0 <= sigma < math.inf:
        raise BadArguments(f"sigma must be finite and >= 0, got {sigma}")
    dim = 1 << n
    total = 0.0
    for trial_seed in np.random.SeedSequence(seed).spawn(trials):
        noise = _noise(np.random.default_rng(trial_seed), kind, sigma, dim)
        fwht_array(noise)
        total += float(np.mean(noise * noise))
    return total / trials
