"""CLI surface tests: exit codes, output schemas, and the end-to-end
generate/transform/extract pipeline."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.cli import run
from bigwht.core import Signal, fwht_inplace


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["definitely-not-a-command"])
        assert code == 1
        assert "Usage" in err or "No such command" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_capture(capsys, ["plan", "--bogus"])
        assert code == 1

    def test_missing_dataset_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_capture(
            capsys, ["extract", "--in", str(tmp_path / "nope.bin"),
                     "--threshold", "1"]
        )
        assert code == 3

    def test_overflow_is_validation_error(self, capsys, tmp_path):
        path = str(tmp_path / "big.bin")
        dataset.write_signal(path, np.full(16, 1 << 60, dtype=np.int64))
        code, _, err = run_capture(capsys, ["transform", "mem", "--in", path])
        assert code == 3

    def test_existing_output_is_io_error(self, capsys, tmp_path):
        path = str(tmp_path / "out.bin")
        dataset.write_signal(path, np.zeros(4, dtype=np.int64))
        code, _, err = run_capture(
            capsys, ["gen", "--n", "2", "--support", "0:4", "--out", path]
        )
        assert code == 2


class TestForce:
    def test_bare_payload_refused_without_force(self, capsys, tmp_path):
        bare = str(tmp_path / "bare.bin")
        data = np.arange(16, dtype=np.int64)
        with open(bare, "wb") as f:
            f.write(data.astype("<i8").tobytes())
        code, _, err = run_capture(capsys, ["transform", "mem", "--in", bare])
        assert code == 3
        code, _, err = run_capture(
            capsys, ["--force", "transform", "mem", "--in", bare]
        )
        assert code == 0
        arr, kind, domain = dataset.read_signal(bare)
        assert (kind, domain) == ("int64", "walsh")
        assert np.array_equal(arr, fwht_inplace(Signal(data.copy())).data)

    def test_force_rejects_unsizable_payload(self, capsys, tmp_path):
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as f:
            f.write(b"\0" * 24)
        code, _, _ = run_capture(
            capsys, ["--force", "transform", "mem", "--in", bad]
        )
        assert code == 3


class TestGen:
    def test_writes_dataset_with_sidecar(self, capsys, tmp_path):
        out = str(tmp_path / "sig.bin")
        code, _, _ = run_capture(
            capsys, ["gen", "--n", "6", "--support", "5:64,9:-128",
                     "--out", out]
        )
        assert code == 0
        arr, kind, domain = dataset.read_signal(out)
        assert kind == "int64"
        assert domain == "time"
        walsh = fwht_inplace(Signal(arr))
        assert walsh.data[5] == 64
        assert walsh.data[9] == -128

    def test_clean_out(self, capsys, tmp_path):
        out = str(tmp_path / "noisy.bin")
        clean = str(tmp_path / "clean.bin")
        code, _, _ = run_capture(
            capsys, ["gen", "--n", "6", "--support", "5:64",
                     "--noise", "gaussian", "--sigma", "0.5", "--seed", "3",
                     "--out", out, "--clean-out", clean]
        )
        assert code == 0
        noisy_arr, kind, _ = dataset.read_signal(out)
        clean_arr, _, _ = dataset.read_signal(clean)
        assert kind == "float64"
        assert not np.array_equal(noisy_arr, clean_arr)

    def test_deterministic_under_global_seed(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        for out in (a, b):
            code, _, _ = run_capture(
                capsys, ["--seed", "11", "gen", "--n", "5", "--support", "1:32",
                         "--noise", "rademacher", "--sigma", "1", "--out", out]
            )
            assert code == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_json_output(self, capsys, tmp_path):
        out = str(tmp_path / "sig.bin")
        code, stdout, _ = run_capture(
            capsys, ["--json", "gen", "--n", "4", "--support", "0:16",
                     "--out", out]
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["schema_version"] == 1
        assert doc["command"] == "gen"
        assert doc["n"] == 4


class TestTransform:
    def test_mem_matches_ext_byte_identical(self, capsys, tmp_path):
        mem_path = str(tmp_path / "mem.bin")
        ext_path = str(tmp_path / "ext.bin")
        rng = np.random.default_rng(4)
        data = rng.integers(-(1 << 16), 1 << 16, 1 << 10).astype(np.int64)
        dataset.write_signal(mem_path, data)
        dataset.write_signal(ext_path, data)
        assert run(["transform", "mem", "--in", mem_path]) == 0
        assert run(["transform", "ext", "--in", ext_path, "--mem-log2", "6",
                    "--mode", "blocked", "--io-block-bytes", "128"]) == 0
        capsys.readouterr()
        assert Path(mem_path).read_bytes() == Path(ext_path).read_bytes()
        assert dataset.read_signal(mem_path)[2] == "walsh"
        assert dataset.read_signal(ext_path)[2] == "walsh"

    def test_mem_threaded(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        rng = np.random.default_rng(5)
        data = rng.integers(-99, 99, 1 << 8).astype(np.int64)
        dataset.write_signal(a, data)
        dataset.write_signal(b, data)
        assert run(["transform", "mem", "--in", a]) == 0
        assert run(["transform", "mem", "--in", b, "--threads", "4"]) == 0
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_mem_bad_thread_count(self, capsys, tmp_path):
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.zeros(16, dtype=np.int64))
        code, _, _ = run_capture(capsys, ["transform", "mem", "--in", path,
                                          "--threads", "3"])
        assert code == 3

    def test_ext_entrywise(self, capsys, tmp_path):
        path = str(tmp_path / "sig.bin")
        rng = np.random.default_rng(6)
        data = rng.integers(-99, 99, 1 << 8).astype(np.int64)
        dataset.write_signal(path, data)
        code, _, _ = run_capture(
            capsys, ["transform", "ext", "--in", path, "--mem-log2", "6",
                     "--mode", "entrywise"]
        )
        assert code == 0
        expected = fwht_inplace(Signal(data.copy())).data
        assert np.array_equal(dataset.read_signal(path)[0], expected)

    def test_ext_entrywise_rejects_block_size(self, capsys, tmp_path):
        path = str(tmp_path / "sig.bin")
        data = np.arange(1 << 8, dtype=np.int64)
        dataset.write_signal(path, data)
        code, _, err = run_capture(
            capsys, ["transform", "ext", "--in", path, "--mem-log2", "6",
                     "--mode", "entrywise", "--io-block-bytes", "64"]
        )
        assert code == 1
        assert "--io-block-bytes" in err
        arr, _, domain = dataset.read_signal(path)
        assert domain == "time"
        assert np.array_equal(arr, data)

    def test_double_transform_refused(self, capsys, tmp_path):
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.zeros(16, dtype=np.int64))
        assert run(["transform", "mem", "--in", path]) == 0
        code, _, _ = run_capture(capsys, ["transform", "mem", "--in", path])
        assert code == 3


class TestOracle:
    def test_expect_match(self, capsys, tmp_path):
        src = str(tmp_path / "src.bin")
        dst = str(tmp_path / "dst.bin")
        rng = np.random.default_rng(7)
        data = rng.integers(-9, 9, 64).astype(np.int64)
        dataset.write_signal(src, data)
        dataset.write_signal(dst, data)
        assert run(["transform", "mem", "--in", dst]) == 0
        code, out, _ = run_capture(capsys, ["oracle", "--in", src,
                                            "--expect", dst])
        assert code == 0
        assert "match" in out

    def test_expect_mismatch_exit_3(self, capsys, tmp_path):
        src = str(tmp_path / "src.bin")
        other = str(tmp_path / "other.bin")
        dataset.write_signal(src, np.arange(16, dtype=np.int64))
        dataset.write_signal(other, np.zeros(16, dtype=np.int64),
                             domain="walsh")
        code, out, _ = run_capture(capsys, ["oracle", "--in", src,
                                            "--expect", other])
        assert code == 3
        assert "MISMATCH" in out

    def test_out_dataset(self, capsys, tmp_path):
        src = str(tmp_path / "src.bin")
        out = str(tmp_path / "oracle.bin")
        data = np.array([1, 2, 3, 4], dtype=np.int64)
        dataset.write_signal(src, data)
        assert run(["oracle", "--in", src, "--out", out]) == 0
        capsys.readouterr()
        arr, _, domain = dataset.read_signal(out)
        assert domain == "walsh"
        assert arr.tolist() == [10, -2, -4, 0]

    def test_limit_enforced(self, capsys, tmp_path):
        src = str(tmp_path / "src.bin")
        dataset.write_signal(src, np.zeros(1 << 5, dtype=np.int64))
        code, _, _ = run_capture(capsys, ["oracle", "--in", src, "--out",
                                          str(tmp_path / "o.bin"),
                                          "--limit", "4"])
        assert code == 3


class TestExtractAndSnr:
    def test_extract_csv_stdout(self, capsys, tmp_path):
        path = str(tmp_path / "w.bin")
        dataset.write_signal(path, np.array([10, -2, -4, 0], dtype=np.int64),
                             domain="walsh")
        code, out, _ = run_capture(capsys, ["extract", "--in", path,
                                            "--threshold", "4"])
        assert code == 0
        assert out.splitlines() == ["index,coefficient", "0,10", "2,-4"]

    def test_extract_refuses_time_domain(self, capsys, tmp_path):
        path = str(tmp_path / "t.bin")
        dataset.write_signal(path, np.zeros(8, dtype=np.int64))
        code, _, _ = run_capture(capsys, ["extract", "--in", path,
                                          "--threshold", "1"])
        assert code == 3

    def test_extract_json_same_values(self, capsys, tmp_path):
        path = str(tmp_path / "w.bin")
        dataset.write_signal(path, np.array([10, -2, -4, 0], dtype=np.int64),
                             domain="walsh")
        code, out, _ = run_capture(capsys, ["--json", "extract", "--in", path,
                                            "--threshold", "4"])
        doc = json.loads(out)
        assert [(c["index"], c["coefficient"]) for c in doc["coefficients"]] \
            == [(0, 10), (2, -4)]

    def test_snr_human_and_json_agree(self, capsys, tmp_path):
        path = str(tmp_path / "c.bin")
        walsh = np.zeros(16, dtype=np.int64)
        walsh[3] = 16
        dataset.write_signal(path, walsh, domain="walsh")
        code, out, _ = run_capture(capsys, ["snr", "--in", path,
                                            "--sigma", "1"])
        assert code == 0
        assert "0.0000 dB" in out
        code, out, _ = run_capture(capsys, ["--json", "snr", "--in", path,
                                            "--sigma", "1"])
        doc = json.loads(out)
        assert doc["snr_linear"] == pytest.approx(1.0)
        assert doc["snr_db"] == pytest.approx(0.0, abs=1e-9)


class TestPlan:
    def test_quoted_total(self, capsys):
        code, out, _ = run_capture(capsys, ["plan", "--n", "32", "--b", "30"])
        assert code == 0
        assert "total=1678.0s" in out

    def test_json_values(self, capsys):
        code, out, _ = run_capture(capsys, ["--json", "plan", "--n", "32",
                                            "--b", "29"])
        doc = json.loads(out)
        assert doc["q"] == 4
        assert doc["total_seconds"] == pytest.approx(2184.0, abs=1)

    def test_table(self, capsys):
        code, out, _ = run_capture(capsys, ["plan", "--table"])
        assert code == 0
        assert len(out.strip().splitlines()) == 10

    def test_overhead_flag(self, capsys):
        code, out, _ = run_capture(
            capsys, ["--json", "plan", "--n", "32", "--b", "29",
                     "--io-overhead", str(577 / 506)]
        )
        doc = json.loads(out)
        assert doc["total_seconds"] == pytest.approx(2468.0, abs=10)

    def test_missing_args(self, capsys):
        code, _, _ = run_capture(capsys, ["plan"])
        assert code == 1


class TestIobenchCli:
    def test_small_sweep_csv(self, capsys, tmp_path):
        csv_path = str(tmp_path / "report.csv")
        code, out, _ = run_capture(
            capsys, ["iobench", "--dir", str(tmp_path), "--file-gb", "0.002",
                     "--blocks", "256K,1M", "--csv", csv_path, "--no-raw"]
        )
        assert code == 0
        lines = Path(csv_path).read_text().strip().splitlines()
        assert lines[0] == "block_bytes,seconds,mbps"
        assert len(lines) == 3

    def test_bad_blocks_usage_error(self, capsys, tmp_path):
        code, _, _ = run_capture(
            capsys, ["iobench", "--dir", str(tmp_path), "--file-gb", "0.001",
                     "--blocks", "zzz"]
        )
        assert code == 1


class TestFoldAndCoverage:
    def test_fold_with_generated_matrix(self, capsys, tmp_path):
        src = str(tmp_path / "src.bin")
        out = str(tmp_path / "folded.bin")
        matrix = str(tmp_path / "map.txt")
        rng = np.random.default_rng(8)
        data = rng.integers(-99, 99, 1 << 8).astype(np.int64)
        dataset.write_signal(src, data)
        code, _, _ = run_capture(
            capsys, ["--seed", "5", "fold", "--in", src, "--matrix", matrix,
                     "--out", out, "--gen-dout", "5"]
        )
        assert code == 0
        arr, _, domain = dataset.read_signal(out)
        assert domain == "time"
        assert arr.shape[0] == 32
        assert int(arr.sum()) == int(data.sum())

    def test_fold_existing_matrix(self, capsys, tmp_path):
        from bigwht.subspace import random_full_rank, save_map, fold as fold_op
        src = str(tmp_path / "src.bin")
        out = str(tmp_path / "folded.bin")
        matrix = str(tmp_path / "map.txt")
        data = np.arange(64, dtype=np.int64)
        dataset.write_signal(src, data)
        lmap = random_full_rank(6, 3, seed=4)
        save_map(lmap, matrix)
        assert run(["fold", "--in", src, "--matrix", matrix, "--out", out]) == 0
        capsys.readouterr()
        expected = fold_op(Signal(data.copy()), lmap).data
        assert np.array_equal(dataset.read_signal(out)[0], expected)

    def test_coverage_csv(self, capsys):
        code, out, _ = run_capture(
            capsys, ["coverage", "--din", "10", "--dout", "6",
                     "--machines", "4", "--trials", "5", "--seed", "2"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,coverage"
        assert len(lines) == 6
        for t, line in enumerate(lines[1:]):
            trial, cov = line.split(",")
            assert int(trial) == t
            assert 0.0 <= float(cov) <= 1.0

    def test_coverage_json(self, capsys):
        code, out, _ = run_capture(
            capsys, ["--json", "coverage", "--din", "10", "--dout", "6",
                     "--machines", "4", "--trials", "3"]
        )
        doc = json.loads(out)
        assert len(doc["per_trial"]) == 3
        assert doc["mean"] == pytest.approx(
            sum(doc["per_trial"]) / 3, rel=1e-12
        )


class TestEndToEnd:
    def test_gen_transform_extract_recovers_support(self, capsys, tmp_path):
        out = str(tmp_path / "sig.bin")
        amp = 1 << 12
        support = {3: 4 * amp, 700: -2 * amp, 4000: 8 * amp}
        support_arg = ",".join(f"{i}:{a}" for i, a in support.items())
        assert run(["gen", "--n", "12", "--support", support_arg,
                    "--out", out]) == 0
        assert run(["transform", "ext", "--in", out, "--mem-log2", "8",
                    "--mode", "blocked", "--io-block-bytes", "256"]) == 0
        code, stdout, _ = run_capture(
            capsys, ["extract", "--in", out, "--threshold", str(amp)]
        )
        assert code == 0
        got = {}
        for line in stdout.strip().splitlines()[1:]:
            idx, val = line.split(",")
            got[int(idx)] = int(val)
        assert got == support
