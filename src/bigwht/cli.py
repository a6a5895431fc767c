"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 I/O error or out of memory,
3 validation error, such as a dataset an interrupted transform left
half-transformed (``DatasetFile.domain`` refuses it in every command).
Diagnostics go to stderr; results go to stdout or to files. Every
subcommand that uses randomness takes its own --seed (default 0) and is
deterministic under it. --json emits the same values as the human output,
wrapped in a versioned schema; JSON has no Infinity or NaN literal, so a
non-finite float is written as its string ("inf", "-inf", "nan").

Each command checks its output paths before it computes anything, so a
refused output leaves no file behind, then hands one payload to
``_report``.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__
from . import dataset, external, iobench, noisy, perfmodel, subspace
from .core import Domain, Signal, wht_bruteforce, ORACLE_LIMIT_DEFAULT
from .errors import BigWHTError, BadArguments
from .noisy import NoiseKind, NoisySignalSpec

JSON_SCHEMA_VERSION = 1


def _json_safe(value):
    """``value`` with every non-finite float replaced by its string."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_safe(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _say(ctx, message: str) -> None:
    """Human-readable progress/diagnostics; suppressed by --quiet."""
    if not ctx.obj.get("quiet"):
        click.echo(message, err=True)


def _report(ctx, command: str, payload: dict, text: str | None = None,
            note: str | None = None) -> None:
    """Print a command's result. With --json, the versioned document
    holding ``payload`` goes to stdout. Otherwise ``text`` goes to stdout
    as it is and ``note`` to stderr through ``_say``."""
    if ctx.obj["json"]:
        doc = {"schema_version": JSON_SCHEMA_VERSION, "command": command,
               **payload}
        click.echo(json.dumps(_json_safe(doc), indent=2, sort_keys=True))
        return
    if text is not None:
        click.echo(text, nl=False)
    if note is not None:
        _say(ctx, note)


@click.group(name="bigwht")
@click.version_option(version=__version__)
@click.option("--quiet", is_flag=True, help="Suppress progress diagnostics.")
@click.option("--json", "json_output", is_flag=True,
              help="Emit machine-readable JSON instead of human text.")
@click.option("--force", is_flag=True,
              help="Adopt bare payloads missing a sidecar, inferring n from "
                   "the file size (assumes int64 elements).")
@click.pass_context
def cli(ctx, quiet, json_output, force):
    """Exact Walsh-Hadamard transforms, in memory or out of core."""
    ctx.obj = {"quiet": quiet, "json": json_output, "force": force}


def _adopt_if_forced(ctx, path: str, assumed_domain: str) -> None:
    """Refuse to guess dataset metadata from the file size unless --force."""
    if os.path.exists(dataset.sidecar_path(path)) or not ctx.obj.get("force"):
        return
    n = dataset.adopt(path, "int64", assumed_domain)
    _say(ctx, f"adopted bare payload {path}: assuming n={n}, int64, "
              f"{assumed_domain} domain")


# -- gen ------------------------------------------------------------------


def _parse_support(text: str) -> tuple[tuple[int, float], ...]:
    pairs = []
    if not text:
        return ()
    for item in text.split(","):
        try:
            idx_str, amp_str = item.split(":")
            idx = int(idx_str)
            amp = int(amp_str) if amp_str.lstrip("+-").isdigit() else float(amp_str)
        except ValueError:
            raise click.UsageError(
                f"bad support item {item!r}; expected INDEX:AMPLITUDE"
            )
        pairs.append((idx, amp))
    return tuple(pairs)


@cli.command()
@click.option("--n", "log2_dim", type=int, required=True,
              help="log2 of the signal dimension.")
@click.option("--support", default="",
              help="Planted Walsh coefficients, e.g. 3:65536,17:-131072.")
@click.option("--noise", "noise_kind",
              type=click.Choice([k.value for k in NoiseKind]),
              default="none", show_default=True)
@click.option("--sigma", type=float, default=0.0, show_default=True,
              help="Per-sample noise standard deviation.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Noise seed.")
@click.option("--out", "out_path", required=True,
              help="Output dataset path (the noisy signal).")
@click.option("--clean-out", "clean_path", default=None,
              help="Also write the noise-free signal here.")
@click.pass_context
def gen(ctx, log2_dim, support, noise_kind, sigma, seed, out_path, clean_path):
    """Generate a sparse time-domain signal with planted Walsh coefficients."""
    if clean_path and os.path.realpath(clean_path) == os.path.realpath(out_path):
        raise click.UsageError("--out and --clean-out name the same file")
    spec = NoisySignalSpec(
        log2_dim=log2_dim,
        support=_parse_support(support),
        noise_kind=NoiseKind(noise_kind),
        sigma=sigma,
        seed=seed,
    )
    for path in (out_path, clean_path):
        if path:
            dataset.refuse_existing(path)
    clean, noisy_sig = noisy.gen(spec)
    dataset.write_signal(out_path, noisy_sig.data, domain="time")
    if clean_path:
        dataset.write_signal(clean_path, clean.data, domain="time")
    _report(ctx, "gen", {
        "n": log2_dim,
        "support_size": len(spec.support),
        "noise": noise_kind,
        "sigma": sigma,
        "seed": spec.seed,
        "out": out_path,
        "clean_out": clean_path,
        "element_kind": "int64" if noisy_sig.is_exact else "float64",
    }, note=f"wrote {out_path}: n={log2_dim}, {len(spec.support)} planted "
            f"coefficients, {noise_kind} noise sigma={sigma}")


# -- transform --------------------------------------------------------------


@cli.group()
def transform():
    """Transform a dataset in place (time domain -> Walsh domain)."""


@transform.command("mem")
@click.option("--in", "in_path", required=True, help="Dataset to transform.")
@click.pass_context
def transform_mem(ctx, in_path):
    """Transform the whole dataset in memory: the one-pass external plan."""
    _adopt_if_forced(ctx, in_path, "time")
    with dataset.open_validated(in_path) as ds:
        n = ds.log2_dim
        external.run_external_blocked(ds, max(n, 1))
    _report(ctx, "transform mem", {"in": in_path, "n": n},
            note=f"transformed {in_path} in memory")


@transform.command("ext")
@click.option("--in", "in_path", required=True, help="Dataset to transform.")
@click.option("--mem-log2", "-b", type=int, required=True,
              help="log2 of the in-memory element budget B.")
@click.option("--mode", type=click.Choice(["entrywise", "blocked"]),
              default="blocked", show_default=True,
              help="entrywise moves one element per transfer (S = 1).")
@click.option("--io-block-bytes", type=int, default=None,
              help="Blocked-mode transfer size in bytes (default: 128 MB "
                   "capped to the memory budget).")
@click.option("--resume", is_flag=True,
              help="Continue an interrupted run from its last finished pass.")
@click.pass_context
def transform_ext(ctx, in_path, mem_log2, mode, io_block_bytes, resume):
    """Out-of-core transform in q = n - B + 1 disk passes."""
    if mode == "entrywise" and io_block_bytes is not None:
        raise click.UsageError(
            "--io-block-bytes applies to blocked mode; entrywise moves one "
            "element per operation"
        )
    elems = 1 if mode == "entrywise" else None
    if io_block_bytes is not None:
        if io_block_bytes % dataset.ELEMENT_BYTES:
            raise BadArguments("--io-block-bytes must be a multiple of 8")
        elems = io_block_bytes // dataset.ELEMENT_BYTES
    _adopt_if_forced(ctx, in_path, "time")
    with dataset.open_validated(in_path) as ds:
        report = external.run_external_blocked(
            ds, mem_log2, io_block_elems=elems, resume=resume
        )
    _report(ctx, "transform ext", {
        "in": in_path,
        "n": report.plan.log2_dim,
        "mem_log2": mem_log2,
        "mode": mode,
        "io_block_elems": report.plan.run_elems,
        "passes": report.plan.q,
        "passes_executed": len(report.passes_executed),
        "resumed_from": report.resumed_from,
    }, note=f"transformed {in_path} out of core: q={report.plan.q} passes "
            f"({len(report.passes_executed)} executed this run)")


# -- oracle -----------------------------------------------------------------


@cli.command()
@click.option("--in", "in_path", required=True, help="Time-domain dataset.")
@click.option("--out", "out_path", default=None,
              help="Write the brute-force transform here.")
@click.option("--expect", "expect_path", default=None,
              help="Compare the brute-force result to this dataset.")
@click.option("--limit", type=int, default=ORACLE_LIMIT_DEFAULT,
              show_default=True, help="Refuse to run above this n.")
@click.pass_context
def oracle(ctx, in_path, out_path, expect_path, limit):
    """Brute-force reference transform (O(4**n); verification only)."""
    if out_path is None and expect_path is None:
        raise click.UsageError("need --out and/or --expect")
    if out_path is not None:
        dataset.refuse_existing(out_path)
    _adopt_if_forced(ctx, in_path, "time")
    arr, _, domain = dataset.read_signal(in_path)
    if domain != Domain.TIME:
        raise BadArguments(f"{in_path} is in the {domain} domain; expected time")
    result = wht_bruteforce(Signal(arr, Domain.TIME), limit=limit)
    matches = None
    if expect_path is not None:
        other, _, _ = dataset.read_signal(expect_path)
        matches = bool(np.array_equal(result.data, other))
    if out_path is not None:
        dataset.write_signal(out_path, result.data, domain="walsh")
    _report(ctx, "oracle", {"in": in_path, "out": out_path,
                            "expect": expect_path, "matches": matches},
            text=None if matches is None else
            ("match\n" if matches else "MISMATCH\n"))
    if matches is False:
        sys.exit(3)


# -- extract ----------------------------------------------------------------


@cli.command()
@click.option("--in", "in_path", required=True, help="Walsh-domain dataset.")
@click.option("--threshold", type=float, required=True,
              help="Keep coefficients with |y| >= threshold.")
@click.option("--out", "out_path", default=None,
              help="Write CSV here instead of stdout.")
@click.pass_context
def extract(ctx, in_path, threshold, out_path):
    """List Walsh coefficients above a threshold as CSV (index,coefficient)."""
    _adopt_if_forced(ctx, in_path, "walsh")
    with dataset.open_validated(in_path) as ds:
        hits = noisy.extract_above_dataset(ds, threshold)
    text = "".join(["index,coefficient\n"] + [f"{i},{v}\n" for i, v in hits])
    note = None
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
        text, note = None, f"wrote {len(hits)} coefficients to {out_path}"
    _report(ctx, "extract", {
        "in": in_path,
        "threshold": threshold,
        "count": len(hits),
        "coefficients": [{"index": i, "coefficient": v} for i, v in hits],
    }, text=text, note=note)


# -- snr ----------------------------------------------------------------------


@cli.command()
@click.option("--in", "in_path", required=True,
              help="Dataset (either domain) holding the clean signal.")
@click.option("--sigma", type=float, required=True,
              help="Per-sample noise standard deviation.")
@click.pass_context
def snr(ctx, in_path, sigma):
    """Signal-to-noise report for a clean signal against noise level sigma."""
    _adopt_if_forced(ctx, in_path, "time")
    arr, _, domain = dataset.read_signal(in_path)
    sig = Signal(arr, domain)
    report = noisy.snr(sig, sigma)
    db = "inf" if report.infinite else f"{report.snr_db:.4f}"
    _report(ctx, "snr", {
        "in": in_path,
        "n": sig.log2_dim,
        "sigma": sigma,
        "snr_linear": report.snr_linear,
        "snr_db": report.snr_db,
        "signal_energy": report.signal_energy,
        "noise_walsh_variance": report.noise_walsh_variance,
        "significance_threshold_db": report.significance_threshold_db,
        "significance_threshold_db_base2": report.significance_threshold_db_base2,
        "infinite": report.infinite,
    }, text=f"n={sig.log2_dim} energy={report.signal_energy:.6g} "
            f"sigma={sigma} snr={report.snr_linear:.6g} ({db} dB)\n"
            f"significance threshold: {report.significance_threshold_db:.4f} "
            f"dB (natural log) / "
            f"{report.significance_threshold_db_base2:.4f} dB (log2)\n")


# -- plan ---------------------------------------------------------------------


@cli.command()
@click.option("--n", "log2_dim", type=int, default=None,
              help="log2 of the signal dimension.")
@click.option("--b", "mem_log2", type=int, default=None,
              help="log2 of the in-memory element budget.")
@click.option("--tcp", type=float, default=perfmodel.COPY_REF_SECONDS_DEFAULT,
              show_default=True, help="Whole-dataset copy time in seconds.")
@click.option("--tcp-n", type=int, default=perfmodel.COPY_REF_LOG2_DIM_DEFAULT,
              show_default=True, help="n of the dataset the copy time refers to.")
@click.option("--tcpu-ref", type=float,
              default=perfmodel.CPU_REF_SECONDS_DEFAULT, show_default=True,
              help="In-memory transform seconds at the CPU reference point.")
@click.option("--tcpu-n", type=int,
              default=perfmodel.CPU_REF_LOG2_DIM_DEFAULT, show_default=True,
              help="n of the CPU reference point.")
@click.option("--io-overhead", type=float, default=1.0, show_default=True,
              help="Multiplier on the per-pass copy time (observed ~1.14).")
@click.option("--speed-factor", type=float, default=1.0, show_default=True,
              help="Disk speed relative to the reference (flash ~4/3).")
@click.option("--table", is_flag=True,
              help="Print reference hours for n = 32..40 at B = 29 and 30.")
@click.pass_context
def plan(ctx, log2_dim, mem_log2, tcp, tcp_n, tcpu_ref, tcpu_n, io_overhead,
         speed_factor, table):
    """Predict external-WHT runtime from the calibrated model."""
    params = perfmodel.PerfParams(
        t_cpu_ref_seconds=tcpu_ref,
        n_ref=tcpu_n,
        t_cp_seconds=tcp,
        unit_log2_dim=tcp_n,
        io_overhead=io_overhead,
        speed_factor=speed_factor,
    )
    if table:
        rows = [{"n": n, "hours": hours}
                for n, hours in perfmodel.table_hours(params).items()]
        _report(ctx, "plan", {"table": rows},
                text=perfmodel.format_table(params))
        return
    if log2_dim is None or mem_log2 is None:
        raise click.UsageError("need --n and --b (or --table)")
    est = perfmodel.estimate(params, log2_dim, mem_log2)
    _report(ctx, "plan", {
        "n": est.log2_dim,
        "b": est.mem_log2,
        "q": est.q,
        "t_cpu_seconds": est.t_cpu_seconds,
        "t_io_seconds": est.t_io_seconds,
        "total_seconds": est.total_seconds,
        "total_hours": est.total_hours,
    }, text=perfmodel.format_estimate(est) + "\n")


# -- iobench --------------------------------------------------------------------


def _parse_size(text: str) -> int:
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1].upper() in units:
        return int(float(text[:-1]) * units[text[-1].upper()])
    return int(text)


@cli.command("iobench")
@click.option("--dir", "directory", required=True,
              help="Scratch directory (needs 2x the file size free).")
@click.option("--file-gb", type=float, default=1.0, show_default=True,
              help="Size of the file to copy, in GiB.")
@click.option("--blocks", show_default=True,
              default=",".join(f"{b >> 20}M" for b in iobench.DEFAULT_BLOCK_SIZES),
              help="Comma-separated block sizes (K/M/G suffixes).")
@click.option("--direct", is_flag=True, help="Use direct (cache-bypassing) I/O.")
@click.option("--csv", "csv_path", default=None, help="Also write CSV here.")
@click.option("--no-raw", is_flag=True,
              help="Skip the separate raw read/write measurements.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Content seed.")
@click.pass_context
def iobench_cmd(ctx, directory, file_gb, blocks, direct, csv_path, no_raw, seed):
    """Measure copy time vs block size on the local disk."""
    file_bytes = int(file_gb * (1 << 30))
    if file_bytes < 1:
        raise BadArguments("--file-gb must be positive")
    try:
        sizes = [_parse_size(tok) for tok in blocks.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"cannot parse --blocks {blocks!r}")
    report = iobench.sweep(
        directory,
        file_bytes,
        sizes,
        direct_io=direct,
        seed=seed,
        measure_raw=not no_raw,
    )
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(report.to_csv())
    _report(ctx, "iobench", {
        "file_bytes": report.file_bytes,
        "direct_io": report.direct_io,
        "annotation": report.annotation,
        "rows": [
            {
                "block_bytes": r.block_bytes,
                "seconds": r.copy_seconds,
                "mbps": r.copy_mbps,
                "read_mbps": r.read_mbps,
                "write_mbps": r.write_mbps,
                "transfers": r.transfers,
                "warnings": r.warnings,
                "error": r.error,
            }
            for r in report.rows
        ],
    }, text=report.format_table())


# -- fold -------------------------------------------------------------------------


@cli.command()
@click.option("--in", "in_path", required=True, help="Source dataset.")
@click.option("--matrix", "matrix_path", required=True,
              help="Binary matrix file (d_out rows of d_in '0'/'1' chars).")
@click.option("--out", "out_path", required=True, help="Folded dataset path.")
@click.option("--gen-dout", type=int, default=None,
              help="Generate a random full-rank matrix of this many rows at "
                   "--matrix first (file must not exist).")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Matrix seed.")
@click.pass_context
def fold(ctx, in_path, matrix_path, out_path, gen_dout, seed):
    """Fold a signal through a GF(2) linear reduction (one streaming pass)."""
    if os.path.realpath(matrix_path) == os.path.realpath(out_path):
        raise click.UsageError("--matrix and --out name the same file")
    dataset.refuse_existing(out_path)
    if gen_dout is not None and os.path.exists(matrix_path):
        raise BadArguments(f"--gen-dout refuses to overwrite {matrix_path}")
    _adopt_if_forced(ctx, in_path, "time")
    with dataset.open_validated(in_path) as ds:
        if gen_dout is not None:
            lmap = subspace.random_full_rank(ds.log2_dim, gen_dout, seed)
        else:
            lmap = subspace.load_map(matrix_path)
        folded = subspace.fold_dataset(ds, lmap)
    if gen_dout is not None:  # only now, so a refused fold leaves no file
        subspace.save_map(lmap, matrix_path)
    dataset.write_signal(out_path, folded, domain="time")
    _report(ctx, "fold", {"in": in_path, "matrix": matrix_path,
                          "out": out_path, "d_in": lmap.d_in,
                          "d_out": lmap.d_out},
            note=f"folded {in_path} ({lmap.d_in} -> {lmap.d_out} bits) "
                 f"into {out_path}")


# -- coverage -----------------------------------------------------------------------


@cli.command()
@click.option("--din", type=int, required=True, help="Source dimension bits.")
@click.option("--dout", type=int, required=True, help="Reduced dimension bits.")
@click.option("--machines", type=int, required=True,
              help="Independent subspaces per trial.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Simulation seed.")
@click.option("--sample-count", type=int, default=None,
              help="Sample this many indices instead of enumerating "
                   "(required above d_in = 24).")
@click.pass_context
def coverage(ctx, din, dout, machines, trials, seed, sample_count):
    """Simulate fleet coverage of Walsh coefficient indices; CSV per trial."""
    result = subspace.coverage_simulate(
        din, dout, machines, trials, seed=seed, sample_count=sample_count,
    )
    _report(ctx, "coverage", {
        "d_in": result.d_in,
        "d_out": result.d_out,
        "machines": result.machines,
        "trials": result.trials,
        "per_trial": result.per_trial,
        "mean": result.mean,
        "model_prediction": result.model_prediction,
    }, text="".join(["trial,coverage\n"] + [
        f"{t},{c:.6f}\n" for t, c in enumerate(result.per_trial)]),
        note=f"mean coverage {result.mean:.4f} "
             f"(model predicts {result.model_prediction:.4f})")


# -- entry point -----------------------------------------------------------------


def run(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, prog_name="bigwht", standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except SystemExit as exc:  # raised by subcommands for data mismatches
        return int(exc.code or 0)
    except BigWHTError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except OSError as exc:
        click.echo(f"I/O error: {exc}", err=True)
        return 2
    except MemoryError as exc:
        click.echo(f"error: out of memory: {exc}", err=True)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
