"""Small bit-twiddling helpers shared across modules."""

from __future__ import annotations

import numpy as np


def is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def parity_array(values: np.ndarray) -> np.ndarray:
    """Per-element popcount parity (0 or 1) of a nonnegative int64 array."""
    return (np.bitwise_count(values) & 1).astype(np.int64)


def sign_array(values: np.ndarray) -> np.ndarray:
    """Per-element (-1)**popcount(v) as int64."""
    return 1 - 2 * parity_array(values)
