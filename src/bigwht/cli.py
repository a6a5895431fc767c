"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 validation error.
Diagnostics go to stderr; results go to stdout or to files. Every
subcommand is deterministic under --seed wherever randomness exists, and
--json emits the same values as the human output, wrapped in a versioned
schema.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import __version__
from . import dataset, external, iobench, noisy, perfmodel, subspace
from .core import Domain, Signal, fwht_inplace, wht_bruteforce, ORACLE_LIMIT_DEFAULT
from .errors import BigWHTError, BadArguments
from .noisy import NoiseKind, NoisySignalSpec
from .parallel import log2_workers_for, plan_parallel, run_parallel

JSON_SCHEMA_VERSION = 1


def _emit_json(ctx, command: str, payload: dict) -> None:
    doc = {"schema_version": JSON_SCHEMA_VERSION, "command": command}
    doc.update(payload)
    click.echo(json.dumps(doc, indent=2, sort_keys=True))


def _say(ctx, message: str) -> None:
    """Human-readable progress/diagnostics; suppressed by --quiet."""
    if not ctx.obj.get("quiet"):
        click.echo(message, err=True)


@click.group(name="bigwht")
@click.version_option(version=__version__)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Default seed for subcommands that use randomness.")
@click.option("--quiet", is_flag=True, help="Suppress progress diagnostics.")
@click.option("--json", "json_output", is_flag=True,
              help="Emit machine-readable JSON instead of human text.")
@click.option("--force", is_flag=True,
              help="Adopt bare payloads missing a sidecar, inferring n from "
                   "the file size (assumes int64 elements).")
@click.pass_context
def cli(ctx, seed, quiet, json_output, force):
    """Exact Walsh-Hadamard transforms, in memory or out of core."""
    ctx.obj = {"seed": seed, "quiet": quiet, "json": json_output,
               "force": force}


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
@click.option("--seed", type=int, default=None,
              help="Noise seed (defaults to the global --seed).")
@click.option("--out", "out_path", required=True,
              help="Output dataset path (the noisy signal).")
@click.option("--clean-out", "clean_path", default=None,
              help="Also write the noise-free signal here.")
@click.pass_context
def gen(ctx, log2_dim, support, noise_kind, sigma, seed, out_path, clean_path):
    """Generate a sparse time-domain signal with planted Walsh coefficients."""
    spec = NoisySignalSpec(
        log2_dim=log2_dim,
        support=_parse_support(support),
        noise_kind=NoiseKind(noise_kind),
        sigma=sigma,
        seed=ctx.obj["seed"] if seed is None else seed,
    )
    spec.validate()
    clean, noisy_sig = noisy.gen(spec)
    dataset.write_signal(out_path, noisy_sig.data, domain="time")
    if clean_path:
        dataset.write_signal(clean_path, clean.data, domain="time")
    payload = {
        "n": log2_dim,
        "support_size": len(spec.support),
        "noise": noise_kind,
        "sigma": sigma,
        "seed": spec.seed,
        "out": out_path,
        "clean_out": clean_path,
        "element_kind": "int64" if noisy_sig.is_exact else "float64",
    }
    if ctx.obj["json"]:
        _emit_json(ctx, "gen", payload)
    else:
        _say(ctx, f"wrote {out_path}: n={log2_dim}, "
                  f"{len(spec.support)} planted coefficients, "
                  f"{noise_kind} noise sigma={sigma}")


# -- transform --------------------------------------------------------------


@cli.group()
def transform():
    """Transform a dataset in place (time domain -> Walsh domain)."""


@transform.command("mem")
@click.option("--in", "in_path", required=True, help="Dataset to transform.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads; must be a power of two.")
@click.pass_context
def transform_mem(ctx, in_path, threads):
    """Load the whole dataset, transform in memory, write it back."""
    _adopt_if_forced(ctx, in_path, "time")
    arr, kind, domain = dataset.read_signal(in_path)
    if domain != "time":
        raise BadArguments(f"{in_path} is already in the {domain} domain")
    sig = Signal(arr, Domain.TIME)
    if threads == 1:
        fwht_inplace(sig)
    else:
        p = log2_workers_for(threads)
        run_parallel(sig, plan_parallel(sig.log2_dim, p))
    ds = dataset.open_validated(in_path)
    try:
        ds.write_block(0, sig.data)
        ds.flush()
        ds.set_domain("walsh")
    finally:
        ds.close()
    payload = {"in": in_path, "n": sig.log2_dim, "threads": threads}
    if ctx.obj["json"]:
        _emit_json(ctx, "transform mem", payload)
    else:
        _say(ctx, f"transformed {in_path} in memory (threads={threads})")


@transform.command("ext")
@click.option("--in", "in_path", required=True, help="Dataset to transform.")
@click.option("--mem-log2", "-b", type=int, required=True,
              help="log2 of the in-memory element budget B.")
@click.option("--mode", type=click.Choice(["entrywise", "blocked"]),
              default="blocked", show_default=True)
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
    _adopt_if_forced(ctx, in_path, "time")
    ds = dataset.open_validated(in_path)
    try:
        if mode == "entrywise":
            report = external.run_external_entrywise(ds, mem_log2, resume=resume)
        else:
            elems = None
            if io_block_bytes is not None:
                if io_block_bytes % dataset.ELEMENT_BYTES:
                    raise BadArguments("--io-block-bytes must be a multiple of 8")
                elems = io_block_bytes // dataset.ELEMENT_BYTES
            report = external.run_external_blocked(
                ds, mem_log2, io_block_elems=elems, resume=resume
            )
    finally:
        ds.close()
    payload = {
        "in": in_path,
        "n": report.plan.log2_dim,
        "mem_log2": mem_log2,
        "mode": mode,
        "io_block_elems": report.plan.io_block_elems,
        "passes": report.plan.q,
        "passes_executed": len(report.passes_executed),
        "resumed_from": report.resumed_from,
    }
    if ctx.obj["json"]:
        _emit_json(ctx, "transform ext", payload)
    else:
        _say(ctx, f"transformed {in_path} out of core: q={report.plan.q} "
                  f"passes ({len(report.passes_executed)} executed this run)")


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
    _adopt_if_forced(ctx, in_path, "time")
    arr, kind, domain = dataset.read_signal(in_path)
    result = wht_bruteforce(Signal(arr, Domain.TIME), limit=limit)
    matches = None
    if expect_path is not None:
        other, _, _ = dataset.read_signal(expect_path)
        matches = bool(np.array_equal(result.data, other))
    if out_path is not None:
        dataset.write_signal(out_path, result.data, domain="walsh")
    payload = {"in": in_path, "out": out_path, "expect": expect_path,
               "matches": matches}
    if ctx.obj["json"]:
        _emit_json(ctx, "oracle", payload)
    elif matches is not None:
        click.echo("match" if matches else "MISMATCH")
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
    ds = dataset.open_validated(in_path)
    try:
        hits = noisy.extract_above_dataset(ds, threshold)
    finally:
        ds.close()
    if ctx.obj["json"]:
        _emit_json(ctx, "extract", {
            "in": in_path,
            "threshold": threshold,
            "count": len(hits),
            "coefficients": [{"index": i, "coefficient": v} for i, v in hits],
        })
        return
    lines = ["index,coefficient"]
    lines += [f"{i},{v}" for i, v in hits]
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
        _say(ctx, f"wrote {len(hits)} coefficients to {out_path}")
    else:
        click.echo(text, nl=False)


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
    arr, kind, domain = dataset.read_signal(in_path)
    sig = Signal(arr, Domain.WALSH if domain == "walsh" else Domain.TIME)
    report = noisy.snr(sig, sigma)
    payload = {
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
    }
    if ctx.obj["json"]:
        # JSON has no Infinity literal; encode as strings when degenerate.
        for key in ("snr_linear", "snr_db"):
            if payload[key] in (float("inf"), float("-inf")):
                payload[key] = str(payload[key])
        _emit_json(ctx, "snr", payload)
        return
    db = "inf" if report.infinite else f"{report.snr_db:.4f}"
    click.echo(
        f"n={sig.log2_dim} energy={report.signal_energy:.6g} "
        f"sigma={sigma} snr={report.snr_linear:.6g} ({db} dB)\n"
        f"significance threshold: {report.significance_threshold_db:.4f} dB "
        f"(natural log) / {report.significance_threshold_db_base2:.4f} dB (log2)"
    )


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
        if ctx.obj["json"]:
            rows = [
                {
                    "n": n,
                    "hours": {
                        str(b): perfmodel.estimate(params, n, b).total_hours
                        for b in (29, 30)
                    },
                }
                for n in range(32, 41)
            ]
            _emit_json(ctx, "plan", {"table": rows})
        else:
            click.echo(perfmodel.format_table(params), nl=False)
        return
    if log2_dim is None or mem_log2 is None:
        raise click.UsageError("need --n and --b (or --table)")
    est = perfmodel.estimate(params, log2_dim, mem_log2)
    if ctx.obj["json"]:
        _emit_json(ctx, "plan", {
            "n": est.log2_dim,
            "b": est.mem_log2,
            "q": est.q,
            "t_cpu_seconds": est.t_cpu_seconds,
            "t_io_seconds": est.t_io_seconds,
            "total_seconds": est.total_seconds,
            "total_hours": est.total_hours,
        })
    else:
        click.echo(perfmodel.format_estimate(est))


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
@click.option("--blocks", default="2M,8M,32M,128M,512M,1G", show_default=True,
              help="Comma-separated block sizes (K/M/G suffixes).")
@click.option("--direct", is_flag=True, help="Use direct (cache-bypassing) I/O.")
@click.option("--csv", "csv_path", default=None, help="Also write CSV here.")
@click.option("--no-raw", is_flag=True,
              help="Skip the separate raw read/write measurements.")
@click.option("--seed", type=int, default=None,
              help="Content seed (defaults to the global --seed).")
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
        seed=ctx.obj["seed"] if seed is None else seed,
        measure_raw=not no_raw,
    )
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as f:
            f.write(report.to_csv())
    if ctx.obj["json"]:
        _emit_json(ctx, "iobench", {
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
        })
    else:
        click.echo(report.format_table(), nl=False)


# -- fold -------------------------------------------------------------------------


@cli.command()
@click.option("--in", "in_path", required=True, help="Source dataset.")
@click.option("--matrix", "matrix_path", required=True,
              help="Binary matrix file (d_out rows of d_in '0'/'1' chars).")
@click.option("--out", "out_path", required=True, help="Folded dataset path.")
@click.option("--gen-dout", type=int, default=None,
              help="Generate a random full-rank matrix of this many rows at "
                   "--matrix first (file must not exist).")
@click.option("--seed", type=int, default=None,
              help="Matrix seed (defaults to the global --seed).")
@click.pass_context
def fold(ctx, in_path, matrix_path, out_path, gen_dout, seed):
    """Fold a signal through a GF(2) linear reduction (one streaming pass)."""
    _adopt_if_forced(ctx, in_path, "time")
    ds = dataset.open_validated(in_path)
    try:
        if gen_dout is not None:
            if os.path.exists(matrix_path):
                raise BadArguments(
                    f"--gen-dout refuses to overwrite {matrix_path}"
                )
            lmap = subspace.random_full_rank(
                ds.log2_dim, gen_dout,
                ctx.obj["seed"] if seed is None else seed,
            )
            subspace.save_map(lmap, matrix_path)
        else:
            lmap = subspace.load_map(matrix_path)
        folded = subspace.fold_dataset(ds, lmap)
    finally:
        ds.close()
    dataset.write_signal(out_path, folded, domain="time")
    payload = {"in": in_path, "matrix": matrix_path, "out": out_path,
               "d_in": lmap.d_in, "d_out": lmap.d_out}
    if ctx.obj["json"]:
        _emit_json(ctx, "fold", payload)
    else:
        _say(ctx, f"folded {in_path} ({lmap.d_in} -> {lmap.d_out} bits) "
                  f"into {out_path}")


# -- coverage -----------------------------------------------------------------------


@cli.command()
@click.option("--din", type=int, required=True, help="Source dimension bits.")
@click.option("--dout", type=int, required=True, help="Reduced dimension bits.")
@click.option("--machines", type=int, required=True,
              help="Independent subspaces per trial.")
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--seed", type=int, default=None,
              help="Simulation seed (defaults to the global --seed).")
@click.option("--sample-count", type=int, default=None,
              help="Sample this many indices instead of enumerating "
                   "(required above d_in = 24).")
@click.pass_context
def coverage(ctx, din, dout, machines, trials, seed, sample_count):
    """Simulate fleet coverage of Walsh coefficient indices; CSV per trial."""
    result = subspace.coverage_simulate(
        din, dout, machines, trials,
        seed=ctx.obj["seed"] if seed is None else seed,
        sample_count=sample_count,
    )
    if ctx.obj["json"]:
        _emit_json(ctx, "coverage", {
            "d_in": result.d_in,
            "d_out": result.d_out,
            "machines": result.machines,
            "trials": result.trials,
            "per_trial": result.per_trial,
            "mean": result.mean,
            "model_prediction": result.model_prediction,
        })
        return
    lines = ["trial,coverage"]
    lines += [f"{t},{c:.6f}" for t, c in enumerate(result.per_trial)]
    click.echo("\n".join(lines))
    _say(ctx, f"mean coverage {result.mean:.4f} "
              f"(model predicts {result.model_prediction:.4f})")


# -- entry point -----------------------------------------------------------------


def run(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, prog_name="bigwht", standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show(file=sys.stderr)
        return 1
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
