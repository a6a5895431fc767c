"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Hardware-scale figures (tera-scale runs, 506 s copies of 32 GB) are
reproduced as model arithmetic only; correctness rests on exact oracle
equivalence at desk scale.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset, external, iobench, perfmodel
from bigwht.cli import run
from bigwht.core import Signal, fwht_array, fwht_inplace, \
    parseval_energy, wht_bruteforce
from bigwht.errors import IoFailure
from bigwht.noisy import NoiseKind, noise_walsh_variance_check, snr, \
    NoisySignalSpec, gen
from bigwht.parallel import plan_parallel, run_parallel
from bigwht.subspace import coverage_simulate, fold, random_full_rank, row_space


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    ok = True
    for n in range(0, 11):
        for _ in range(200):
            x = rng.integers(-(1 << 20), (1 << 20) + 1, 1 << n).astype(np.int64)
            fast = fwht_inplace(Signal(x.copy())).data
            slow = wht_bruteforce(Signal(x.copy())).data
            if not np.array_equal(fast, slow):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - started
    report(1, "fast transform equals brute-force definition exactly "
              "(200 random int64 signals, n = 0..10)",
           ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_02_involution_and_parseval():
    rng = np.random.default_rng(2025)
    ok = True
    for n in (0, 1, 2, 5, 10, 16, 20):
        bound = (1 << 62) >> n  # keep two transforms inside int64
        lo = -min(1 << 20, bound // 2)
        x = rng.integers(lo, -lo + 1, 1 << n).astype(np.int64)
        sig = Signal(x.copy())
        energy_before = parseval_energy(sig)
        fwht_inplace(sig)
        ok &= parseval_energy(sig) == energy_before * (1 << n)
        fwht_inplace(sig)
        ok &= bool(np.array_equal(sig.data, x * (1 << n)))
    for n in (4, 12):
        x = rng.normal(size=1 << n)
        sig = Signal(x.copy())
        before = parseval_energy(sig)
        fwht_inplace(sig)
        ratio = parseval_energy(sig) / before
        ok &= abs(ratio - (1 << n)) <= 1e-9 * (1 << n)
    report(2, "double transform is 2**n times the identity (exact int64, "
              "n <= 20); energy scales by exactly 2**n", ok)


def test_criterion_03_parallel_equivalence():
    rng = np.random.default_rng(2026)
    sizes = [int(rng.integers(4, 15)) for _ in range(44)] + [18] * 3 + [20] * 3
    ok = True
    for n in sizes:
        x = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
        expected = fwht_inplace(Signal(x.copy())).data
        for p in (1, 2, 3):
            got = run_parallel(Signal(x.copy()), plan_parallel(n, p)).data
            if not np.array_equal(got, expected):
                ok = False
    # The four-worker schedule must match the reference tuples literally.
    for n in (6, 12, 20):
        plan = plan_parallel(n, 2)
        k = plan.stages[0]
        tuples = [(s, 1 << k) for s in plan.runs(k)]
        ok &= tuples == [
            (0, 1 << (n - 2)),
            (1 << (n - 3), 1 << (n - 2)),
            (1 << (n - 1), 1 << (n - 2)),
            ((1 << (n - 1)) + (1 << (n - 3)), 1 << (n - 2)),
        ]
        k = plan.stages[1]
        ok &= [(s, 1 << k) for s in plan.runs(k)] == [
            (i << (n - 3), 1 << (n - 1)) for i in range(4)
        ]
    report(3, "parallel runs (p = 1..3) byte-identical to serial over 50 "
              "random signals; p = 2 schedule matches the reference tuples",
           ok)


def _external_case(tmp_path, n, b, mode, s_elems, tag):
    rng = np.random.default_rng(n * 100 + b)
    data = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
    expected = data.copy()
    fwht_array(expected)
    path = str(tmp_path / f"acc_{tag}.bin")
    dataset.write_signal(path, data)
    with dataset.open_validated(path) as ds:
        before = ds.stats.snapshot()
        if mode == "entrywise":
            rep = external.run_external_entrywise(ds, b)
        else:
            rep = external.run_external_blocked(ds, b, io_block_elems=s_elems)
        reads = ds.stats.elements_read - before[2]
        writes = ds.stats.elements_written - before[3]
    got, _, domain = dataset.read_signal(path)
    q = n - b + 1
    return (
        np.array_equal(got, expected)
        and domain == "walsh"
        and rep.plan.q == q
        and len(rep.passes_executed) == q
        and reads == q * (1 << n)
        and writes == q * (1 << n)
    )


def test_criterion_04_external_equivalence(tmp_path):
    ok = True
    entrywise_grid = [(10, 8), (12, 8), (14, 12), (18, 16)]
    for n, b in entrywise_grid:
        ok &= _external_case(tmp_path, n, b, "entrywise", None, f"e{n}_{b}")
    blocked_grid = [
        (12, 8, 1 << 4), (14, 8, 1 << 6), (16, 12, 1 << 4),
        (18, 12, 1 << 9), (22, 16, 1 << 9),
    ]
    for n, b, s in blocked_grid:
        ok &= _external_case(tmp_path, n, b, "blocked", s, f"b{n}_{b}_{s}")

    # Block-size independence: identical bytes across S.
    rng = np.random.default_rng(7)
    data = rng.integers(-(1 << 20), 1 << 20, 1 << 14).astype(np.int64)
    outputs = []
    for s in (1 << 4, 1 << 6, 1 << 9):
        path = str(tmp_path / f"acc_s{s}.bin")
        dataset.write_signal(path, data)
        with dataset.open_validated(path) as ds:
            external.run_external_blocked(ds, 10, io_block_elems=s)
        outputs.append(Path(path).read_bytes())
    ok &= outputs[0] == outputs[1] == outputs[2]

    # Restart after an injected kill reproduces the uninterrupted result.
    n, b, s = 12, 8, 1 << 4
    data = rng.integers(-(1 << 20), 1 << 20, 1 << n).astype(np.int64)
    reference = data.copy()
    fwht_array(reference)
    path = str(tmp_path / "acc_restart.bin")
    dataset.write_signal(path, data)
    with dataset.open_validated(path) as ds:
        allowed = (1 << (n - b)) + 2 * ((1 << n) // s)
        state = {"reads": 0}

        def hook(op, start, count):
            if op == "read":
                state["reads"] += 1
                if state["reads"] > allowed:
                    raise IoFailure("injected kill")

        ds.fault_hook = hook
        try:
            external.run_external_blocked(ds, b, io_block_elems=s)
            ok = False  # the injection must fire
        except IoFailure:
            pass
    with dataset.open_validated(path) as ds:
        external.run_external_blocked(ds, b, io_block_elems=s, resume=True)
    got, _, _ = dataset.read_signal(path)
    ok &= bool(np.array_equal(got, reference))
    report(4, "external modes byte-identical to in-memory results "
              "(n up to 22, B in {8,12,16}, S in {2**4..2**9}); "
              "q = n-B+1 passes touch each element once; restart is exact",
           ok)


def test_criterion_05_perf_model_regression():
    params = perfmodel.PerfParams()
    e1 = perfmodel.estimate(params, 32, 30)
    e2 = perfmodel.estimate(params, 32, 29)
    e3 = perfmodel.estimate(perfmodel.with_observed_overhead(params), 32, 29)
    e4 = perfmodel.estimate(params, 40, 30)
    ok = (
        abs(e1.total_seconds - 1678.0) <= 1.0
        and abs(e2.total_seconds - 2184.0) <= 1.0
        and abs(e3.total_seconds - 2468.0) <= 10.0
        and 14.0 <= e4.total_days <= 21.0
    )
    report(5, "model reproduces 1678 s (B=30), 2184 s (B=29), 2468 s "
              "with observed overhead, and 14-21 days at n=40",
           ok, f"{e1.total_seconds:.0f}/{e2.total_seconds:.0f}/"
               f"{e3.total_seconds:.0f}s, {e4.total_days:.1f}d")


def test_criterion_06_distributed_model():
    est = perfmodel.estimate_distributed(perfmodel.PerfParams(), 45, 40, 30, 64)
    target_cov = 1 - (31 / 32) ** 64
    target_sec = 2_718_720.0
    ok = (
        abs(est.expected_coverage - target_cov) <= 0.005
        and abs(est.per_machine_seconds - target_sec) <= 0.05 * target_sec
    )
    report(6, "fleet model: coverage matches 1-(31/32)**64 and per-machine "
              "time is within 5% of 2,718,720 s",
           ok, f"cov={est.expected_coverage:.4f}, "
               f"t={est.per_machine_seconds:.0f}s")


def test_criterion_07_coverage_simulation():
    fleet = coverage_simulate(16, 11, machines=64, trials=20, seed=31)
    single = coverage_simulate(16, 11, machines=1, trials=20, seed=31)
    single_target = (2**11 - 1) / (2**16 - 1)
    ok = (
        abs(fleet.mean - 0.869) <= 0.02
        and abs(single.mean - single_target) <= 0.10 * single_target
    )
    report(7, "simulated fleet coverage (d 16->11, 64 machines) within 2 "
              "points of 0.869; single machine within 10% of 1/32",
           ok, f"fleet={fleet.mean:.4f}, single={single.mean:.6f}")


def test_criterion_08_fold_property():
    rng = np.random.default_rng(2027)
    ok = True
    for _ in range(100):
        d_in = int(rng.integers(2, 13))
        d_out = int(rng.integers(1, d_in + 1))
        lmap = random_full_rank(d_in, d_out, seed=int(rng.integers(1 << 30)))
        x = rng.integers(-(1 << 16), 1 << 16, 1 << d_in).astype(np.int64)
        folded_walsh = fwht_inplace(fold(Signal(x.copy()), lmap)).data
        gathered = fwht_inplace(Signal(x.copy())).data[row_space(lmap)]
        ok &= bool(np.array_equal(folded_walsh, gathered))
    report(8, "folded spectrum equals the gathered original spectrum "
              "exactly for 100 random full-rank maps (d_in <= 12)", ok)


def test_criterion_09_noise_variance_law():
    uniform = noise_walsh_variance_check(16, 1.0, NoiseKind.UNIFORM, 50, seed=41)
    rademacher = noise_walsh_variance_check(16, 1.0, NoiseKind.RADEMACHER, 50,
                                            seed=42)
    target = float(1 << 16)
    ok = (
        abs(uniform - target) <= 0.10 * target
        and abs(rademacher - target) <= 0.10 * target
    )
    report(9, "empirical Walsh noise variance within 10% of 2**n * sigma**2 "
              "for uniform and Rademacher noise (n=16, 50 trials)",
           ok, f"uniform={uniform:.0f}, rademacher={rademacher:.0f}")


def test_criterion_10_snr():
    clean, _ = gen(NoisySignalSpec(log2_dim=4, support=((3, 16),)))
    base = snr(clean, sigma=1.0)
    ok = base.snr_db == 0.0 and base.snr_linear == 1.0
    for c in (2, 3, 10):
        scaled = snr(Signal(clean.data * c), sigma=1.0)
        ok &= abs(scaled.snr_linear - c * c * base.snr_linear) \
            <= 1e-12 * scaled.snr_linear
    report(10, "single-coefficient SNR case reports exactly 0 dB; "
               "SNR scales quadratically with amplitude (1e-12 relative)",
           ok)


def test_criterion_11_end_to_end_cli(tmp_path, capsys):
    n = 16
    amp_unit = 1 << n
    support = {
        17: 8 * amp_unit, 300: -12 * amp_unit, 2048: 16 * amp_unit,
        9001: 9 * amp_unit, 20000: -10 * amp_unit, 32768: 11 * amp_unit,
        40000: 13 * amp_unit, 65535: -15 * amp_unit,
    }
    min_amp = min(abs(a) for a in support.values())
    # sigma respects min_amp >= 6 * sqrt(2**n) * sigma with a wide margin
    # (at the bound itself, ~2**16 noise coefficients at 3 sigma' would
    # produce hundreds of false positives, so exact recovery needs slack).
    sigma = 16
    assert min_amp >= 6 * math.sqrt(2**n) * sigma
    support_arg = ",".join(f"{i}:{a}" for i, a in support.items())
    tau = min_amp // 2

    ok = True
    # Noisy pipeline: the support indices must come back exactly.
    noisy_path = str(tmp_path / "e2e_noisy.bin")
    clean_path = str(tmp_path / "e2e_clean.bin")
    ok &= run(["gen", "--n", str(n), "--support", support_arg,
               "--noise", "rademacher", "--sigma", str(sigma), "--seed", "97",
               "--out", noisy_path, "--clean-out", clean_path]) == 0
    ok &= run(["transform", "ext", "--in", noisy_path, "--mem-log2", "12",
               "--mode", "blocked", "--io-block-bytes", "4096"]) == 0
    code = run(["extract", "--in", noisy_path, "--threshold", str(tau),
                "--out", str(tmp_path / "noisy_hits.csv")])
    ok &= code == 0
    rows = (tmp_path / "noisy_hits.csv").read_text().strip().splitlines()[1:]
    got_noisy = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
    sigma_walsh = sigma * math.sqrt(2**n)
    ok &= set(got_noisy) == set(support)
    ok &= all(abs(got_noisy[i] - support[i]) <= 6 * sigma_walsh for i in support)

    # Noise-free control: indices and amplitudes exact.
    ok &= run(["transform", "ext", "--in", clean_path, "--mem-log2", "12",
               "--mode", "blocked", "--io-block-bytes", "4096"]) == 0
    code = run(["extract", "--in", clean_path, "--threshold", str(tau),
                "--out", str(tmp_path / "clean_hits.csv")])
    ok &= code == 0
    rows = (tmp_path / "clean_hits.csv").read_text().strip().splitlines()[1:]
    got_clean = {int(r.split(",")[0]): int(r.split(",")[1]) for r in rows}
    ok &= got_clean == support

    # iobench sweep over a 256 MB scratch file: well-formed and
    # arithmetically consistent.
    bench = iobench.sweep(str(tmp_path), 256 << 20, [4 << 20, 32 << 20],
                          seed=13)
    bench.validate()
    ok &= all(r.error is None for r in bench.rows)
    ok &= all(r.copy_seconds > 0 and r.copy_mbps > 0 for r in bench.rows)
    ok &= all(r.read_mbps > 0 and r.write_mbps > 0 for r in bench.rows)
    for r in bench.rows:
        ok &= abs(r.copy_mbps * 1e6 * r.copy_seconds - bench.file_bytes) \
            <= 0.001 * bench.file_bytes
    capsys.readouterr()  # discard CLI diagnostics
    with capsys.disabled():
        print()
    report(11, "CLI pipeline recovers the planted support (exact indices "
               "and amplitudes on the noise-free control, exact indices "
               "under noise); 256 MB iobench report is consistent", ok)
