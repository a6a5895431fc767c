"""The three benchmark workloads and their verifiers.

Each workload makes its inputs from one integer seed, computes reference
outputs with the serial kernel during set-up, and then runs jobs one at a
time. A job is the timed span; ``prepare`` (before it) and ``verify``
(after it) are not timed. Only public bigwht functions are called.

- mem_n24:      2^24 int64 in RAM, run_parallel on 2 threads. Only
                workload where ``parallel`` runs; no disk I/O, so it
                bypasses ``dataset`` and ``external``.
- ext_n24_b20:  2^24 noisy sparse signal on disk, run_external_blocked
                with 2^20 elements of memory and 2^16-element blocks
                (q = 5 passes) then extract_above_dataset. The paper's
                out-of-core path.
- fold_n22_d12: 2^22 time-domain dataset folded to 2^12 through a fresh
                random full-rank map per job, then a tiny transform.
                Reads the dataset, never writes it, and leaves the kernel
                almost idle: the bypass workload for kernel and
                ``external`` changes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from bigwht import core, dataset, external, noisy, parallel, subspace

HOLDOUT_DOMAIN = 0x484F4C44  # separates hold-out streams from workload seeds

ELEMENT_BYTES = 8


@dataclass(frozen=True)
class Sizes:
    mem_n: int = 24
    ext_n: int = 24
    ext_b: int = 20
    ext_s: int = 1 << 16
    fold_n: int = 22
    fold_d: int = 12
    copy_bytes: int = 128 << 20
    copy_block: int = 512 << 10


DESK = Sizes(mem_n=12, ext_n=12, ext_b=8, ext_s=1 << 4, fold_n=12, fold_d=6,
             copy_bytes=1 << 20, copy_block=64 << 10)

ORACLE_N = 12  # brute force costs O(4^n), so the check stays at desk scale


def inputs_seed(seed: int, holdout_seed: int | None) -> int:
    """The one integer every input derives from.

    A hold-out seed draws from a stream family no ``--seed`` value can
    reach, so a gain tuned on workload seeds can be rechecked on inputs
    never seen while tuning.
    """
    entropy = [seed] if holdout_seed is None else [HOLDOUT_DOMAIN, holdout_seed]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def hits_above(values: np.ndarray, tau) -> list[tuple[int, int]]:
    """Reference for extract_above: |v| >= tau, largest first, ties by index."""
    idx = np.nonzero(np.abs(values) >= tau)[0]
    vals = values[idx]
    order = np.lexsort((idx, -np.abs(vals)))
    return [(int(idx[k]), int(vals[k])) for k in order]


def oracle_agrees(workload) -> bool:
    """Serial fwht_array against the brute-force double sum on a 2^12
    input from the workload's own generator."""
    x = workload.generate(ORACLE_N)
    fast = x.copy()
    core.fwht_array(fast)
    slow = core.wht_bruteforce(core.Signal(x.copy()))
    return bool(np.array_equal(fast, slow.data))


def _sha1_file(path: str) -> str:
    h = hashlib.sha1()
    buf = bytearray(8 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as f:
        while True:
            got = f.readinto(buf)
            if not got:
                return h.hexdigest()
            h.update(view[:got])


def _sha1_array(arr: np.ndarray) -> str:
    return hashlib.sha1(memoryview(np.ascontiguousarray(arr, dtype="<i8")).cast("B")).hexdigest()


def _flip_byte(path: str, offset: int) -> None:
    fd = os.open(path, os.O_RDWR)
    try:
        byte = os.pread(fd, 1, offset)
        os.pwrite(fd, bytes([byte[0] ^ 1]), offset)
    finally:
        os.close(fd)


def _remove_dataset(path: str) -> None:
    for p in (path, dataset.sidecar_path(path)):
        if os.path.exists(p):
            os.unlink(p)


@dataclass
class JobOutput:
    payload: object
    figures: dict = field(default_factory=dict)  # per-job layer figures


class MemWorkload:
    name = "mem_n24"

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.n = sizes.mem_n
        self.seed = seed
        self.elements = 1 << self.n
        self.dataset_bytes = ELEMENT_BYTES << self.n
        self.serial_s = 0.0
        self.x = self.ref = self._work = None

    def generate(self, n: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 1])
        return rng.integers(-(1 << 31), 1 << 31, 1 << n, dtype=np.int64)

    def setup(self) -> None:
        self.x = self.ref = None
        self.x = self.generate(self.n)
        self.ref = self.x.copy()
        t0 = perf_counter()
        core.fwht_array(self.ref)
        self.serial_s = perf_counter() - t0

    @property
    def held_bytes(self) -> int:
        return self.x.nbytes + self.ref.nbytes

    def prepare(self, job: int) -> None:
        self._work = None
        gc.collect()
        self._work = self.x.copy()

    def job(self, job: int, tracer) -> JobOutput:
        stamps: list[float] = []
        on_phase = (lambda _idx: stamps.append(perf_counter())) if tracer.enabled else None
        sig = core.Signal(self._work)
        with tracer.span("parallel.run_parallel"):
            start = perf_counter()
            parallel.run_parallel(sig, parallel.plan_parallel(self.n, 1), on_phase)
        figures = {}
        if stamps:
            figures["parallel.phase0_s"] = stamps[0] - start
            figures["parallel.stage_phases_s"] = stamps[-1] - stamps[0]
        return JobOutput(sig.data, figures)

    def corrupt(self, out: JobOutput) -> None:
        out.payload.view(np.uint8)[out.payload.nbytes // 3] ^= 1

    def verify(self, out: JobOutput) -> bool:
        ok = bool(np.array_equal(out.payload, self.ref))
        self._work = None
        return ok

    def cleanup(self) -> None:
        self.x = self.ref = self._work = None


class ExternalWorkload:
    name = "ext_n24_b20"
    planted = 32
    sigma = 16

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.n, self.b, self.s = sizes.ext_n, sizes.ext_b, sizes.ext_s
        self.seed = seed
        self.elements = 1 << self.n
        self.dataset_bytes = ELEMENT_BYTES << self.n
        self.payload = os.path.join(workdir, "ext.bin")
        self.pristine = os.path.join(workdir, "ext_time.bin")
        # 16 noise standard deviations in the Walsh domain (2^(n/2) * sigma):
        # pure noise never reaches it, every planted coefficient clears it.
        self.tau = int(16 * self.sigma * 2.0 ** (self.n / 2))
        self.serial_s = 0.0
        self.ref_hash = ""
        self.ref_hits: list[tuple[int, int]] = []
        self.support: set[int] = set()
        self.held_bytes = 0  # only a digest and the hit list stay in RAM

    def spec(self, n: int) -> noisy.NoisySignalSpec:
        rng = np.random.default_rng([self.seed, 3])
        idx = rng.choice(1 << n, self.planted, replace=False)
        # Multiples of 2^n keep gen on the exact int64 path; 32..64 * 2^n
        # is 2^(n/2 + 1) noise deviations or more, far above tau.
        mult = rng.integers(32, 65, self.planted) * rng.choice([-1, 1], self.planted)
        support = tuple((int(i), int(m) << n) for i, m in zip(idx, mult))
        return noisy.NoisySignalSpec(n, support, noisy.NoiseKind.RADEMACHER,
                                     float(self.sigma), seed=self.seed)

    def generate(self, n: int) -> np.ndarray:
        return noisy.gen(self.spec(n))[1].data

    def setup(self) -> None:
        spec = self.spec(self.n)
        x = noisy.gen(spec)[1].data
        _remove_dataset(self.pristine)
        dataset.write_signal(self.pristine, x)
        t0 = perf_counter()
        core.fwht_array(x)  # the input is on disk; x becomes the reference
        self.serial_s = perf_counter() - t0
        self.ref_hash = _sha1_array(x)
        self.ref_hits = hits_above(x, self.tau)
        self.support = {i for i, _ in spec.support}

    def prepare(self, job: int) -> None:
        gc.collect()
        shutil.copyfile(self.pristine, self.payload)
        shutil.copyfile(dataset.sidecar_path(self.pristine),
                        dataset.sidecar_path(self.payload))
        # Flush the restore now so the job's fsyncs cover only its own writes.
        fd = os.open(self.payload, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def job(self, job: int, tracer) -> JobOutput:
        ds = dataset.open_validated(self.payload)
        try:
            before = ds.stats.snapshot()
            t0 = perf_counter()
            with tracer.span("external.run_external_blocked"):
                report = external.run_external_blocked(ds, self.b, io_block_elems=self.s)
            transform_s = perf_counter() - t0
            mid = ds.stats.snapshot()
            with tracer.span("noisy.extract_above_dataset"):
                hits = noisy.extract_above_dataset(ds, self.tau)
            after = ds.stats.snapshot()
        finally:
            ds.close()
        passes = len(report.passes_executed)
        found = {i for i, _ in hits}
        true_hits = len(found & self.support)
        figures = {
            "transform_s": transform_s,
            "external.passes": passes,
            "external.bytes_per_pass":
                ELEMENT_BYTES * (mid[2] - before[2] + mid[3] - before[3]) / passes,
            "dataset.bytes_read": ELEMENT_BYTES * (after[2] - before[2]),
            "dataset.bytes_written": ELEMENT_BYTES * (after[3] - before[3]),
            "noisy.extract.recall": true_hits / len(self.support),
            "noisy.extract.precision": true_hits / len(found) if found else 0.0,
        }
        return JobOutput(hits, figures)

    def corrupt(self, out: JobOutput) -> None:
        _flip_byte(self.payload, self.dataset_bytes // 3)

    def verify(self, out: JobOutput) -> bool:
        with open(dataset.sidecar_path(self.payload), encoding="utf-8") as f:
            meta = json.load(f)
        if meta.get("domain") != "walsh" or "pass_progress" in meta:
            return False
        return _sha1_file(self.payload) == self.ref_hash and out.payload == self.ref_hits

    def cleanup(self) -> None:
        _remove_dataset(self.payload)
        _remove_dataset(self.pristine)


class FoldWorkload:
    name = "fold_n22_d12"

    def __init__(self, sizes: Sizes, seed: int, workdir: str):
        self.n, self.d = sizes.fold_n, sizes.fold_d
        self.seed = seed
        self.elements = 1 << self.n
        self.dataset_bytes = ELEMENT_BYTES << self.n
        self.path = os.path.join(workdir, "fold.bin")
        self.ref = None
        self.tau = 0
        self.serial_s = 0.0

    def generate(self, n: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 4])
        return rng.integers(-(1 << 20), 1 << 20, 1 << n, dtype=np.int64)

    def setup(self) -> None:
        self.ref = None
        x = self.generate(self.n)
        _remove_dataset(self.path)
        dataset.write_signal(self.path, x)
        # Three Walsh-domain deviations (Parseval: 2^(n/2) times the
        # time-domain RMS) leaves a handful of hits per folded spectrum.
        rms = float(np.sqrt(np.mean(np.square(x, dtype=np.float64))))
        self.tau = int(3 * rms * 2.0 ** (self.n / 2))
        t0 = perf_counter()
        core.fwht_array(x)
        self.serial_s = perf_counter() - t0
        self.ref = x

    @property
    def held_bytes(self) -> int:
        return self.ref.nbytes

    def prepare(self, job: int) -> None:
        gc.collect()

    def job(self, job: int, tracer) -> JobOutput:
        with tracer.span("subspace.random_full_rank"):
            lmap = subspace.random_full_rank(self.n, self.d, [self.seed, 2, job])
        ds = dataset.open_validated(self.path)
        try:
            before = ds.stats.snapshot()
            with tracer.span("subspace.fold_dataset"):
                folded = subspace.fold_dataset(ds, lmap)
            after = ds.stats.snapshot()
        finally:
            ds.close()
        sig = core.Signal(folded)
        with tracer.span("core.fwht_inplace"):
            core.fwht_inplace(sig)
        with tracer.span("noisy.extract_above"):
            hits = noisy.extract_above(sig, self.tau)
        figures = {
            "dataset.bytes_read": ELEMENT_BYTES * (after[2] - before[2]),
            "dataset.bytes_written": ELEMENT_BYTES * (after[3] - before[3]),
        }
        return JobOutput((lmap, sig.data, hits), figures)

    def corrupt(self, out: JobOutput) -> None:
        out.payload[1].view(np.uint8)[5] ^= 1

    def verify(self, out: JobOutput) -> bool:
        lmap, spectrum, hits = out.payload
        expected = self.ref[subspace.row_space(lmap)]
        return bool(np.array_equal(spectrum, expected)) and hits == hits_above(expected, self.tau)

    def cleanup(self) -> None:
        self.ref = None
        _remove_dataset(self.path)


WORKLOADS = {w.name: w for w in (MemWorkload, ExternalWorkload, FoldWorkload)}
