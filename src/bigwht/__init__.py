"""bigwht: exact Walsh-Hadamard transforms far beyond RAM capacity."""

from .core import (
    Domain,
    Signal,
    fwht_array,
    fwht_inplace,
    inverse_wht_inplace,
    parseval_energy,
    wht_bruteforce,
)
from .parallel import StagePlan, plan_parallel, run_parallel
from .external import (
    pass_io_volume,
    plan_external,
    run_external_blocked,
    run_external_entrywise,
)
from .perfmodel import PerfParams, calibrate, estimate, estimate_distributed
from .noisy import (
    NoiseKind,
    NoisySignalSpec,
    extract_above,
    gen,
    noise_walsh_variance_check,
    significance_threshold_db,
    snr,
)
from .subspace import LinearMap, coverage_simulate, fold, random_full_rank

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "Signal",
    "fwht_array",
    "fwht_inplace",
    "inverse_wht_inplace",
    "parseval_energy",
    "wht_bruteforce",
    "StagePlan",
    "plan_parallel",
    "run_parallel",
    "pass_io_volume",
    "plan_external",
    "run_external_blocked",
    "run_external_entrywise",
    "PerfParams",
    "calibrate",
    "estimate",
    "estimate_distributed",
    "NoiseKind",
    "NoisySignalSpec",
    "extract_above",
    "gen",
    "noise_walsh_variance_check",
    "significance_threshold_db",
    "snr",
    "LinearMap",
    "coverage_simulate",
    "fold",
    "random_full_rank",
    "__version__",
]
