"""CLI surface tests: exit codes, output schemas, and the end-to-end
generate/transform/extract pipeline."""

import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from bigwht import dataset
from bigwht.cli import run
from bigwht.core import Signal, fwht_inplace

from conftest import set_cpus


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


class TestRefusedOutput:
    """A refused output is refused before any work, and leaves no file."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dataset.write_signal("in.bin", np.arange(16, dtype=np.int64))
        dataset.write_signal("old.bin", np.zeros(16, dtype=np.int64))
        return tmp_path

    @pytest.mark.parametrize("argv, code", [
        (["fold", "--in", "in.bin", "--matrix", "m.txt", "--gen-dout", "2",
          "--out", "old.bin"], 2),
        (["gen", "--n", "4", "--support", "1:16", "--out", "a.bin",
          "--clean-out", "old.bin"], 2),
        (["gen", "--n", "4", "--support", "1:16", "--out", "s.bin",
          "--clean-out", "./s.bin"], 1),
        (["fold", "--in", "in.bin", "--matrix", "x.bin", "--gen-dout", "2",
          "--out", "x.bin"], 1),
        (["oracle", "--in", "in.bin", "--out", "old.bin"], 2),
    ])
    def test_leaves_no_new_file(self, capsys, workdir, monkeypatch, argv,
                                code):
        def no_work(*args, **kwargs):
            raise AssertionError("computed before refusing the output")

        for name in ("cli.wht_bruteforce", "noisy.gen",
                     "subspace.random_full_rank", "subspace.fold_dataset"):
            monkeypatch.setattr(f"bigwht.{name}", no_work)
        before = sorted(os.listdir(workdir))
        got, out, err = run_capture(capsys, argv)
        assert got == code
        assert out == ""
        assert "Traceback" not in err
        assert sorted(os.listdir(workdir)) == before


class TestRefusedArguments:
    """A refused argument ends in a one-line diagnostic, before any work,
    and changes and leaves no file."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for path in ("X", "T"):
            assert run(["gen", "--n", "6", "--support", "3:64",
                        "--out", path]) == 0
        assert run(["transform", "mem", "--in", "X"]) == 0
        Path("M").write_text("100000\n010000\n")
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize("argv, code", [
        # extract --out onto its own input payload or sidecar.
        (["extract", "--in", "X", "--threshold", "1", "--out", "X"], 1),
        (["extract", "--in", "X", "--threshold", "1",
          "--out", "./X.meta.json"], 1),
        # A negative --seed, on every command that takes one.
        (["gen", "--n", "4", "--noise", "gaussian", "--sigma", "1",
          "--seed", "-1", "--out", "G"], 1),
        (["coverage", "--din", "4", "--dout", "2", "--machines", "2",
          "--seed", "-1"], 1),
        (["iobench", "--dir", ".", "--file-gb", "0.001", "--seed", "-1"], 1),
        (["fold", "--in", "T", "--matrix", "N", "--out", "F",
          "--gen-dout", "2", "--seed", "-1"], 1),
        # --file-gb that is not a finite positive size.
        (["iobench", "--dir", ".", "--file-gb", "nan"], 3),
        (["iobench", "--dir", ".", "--file-gb", "inf"], 3),
        (["iobench", "--dir", ".", "--file-gb", "1e-12"], 3),
        (["transform", "ext", "--in", "T", "-b", "4",
          "--io-block-bytes", "12"], 3),
        (["oracle", "--in", "T"], 1),
        (["fold", "--in", "T", "--matrix", "M", "--out", "F",
          "--gen-dout", "2"], 3),
        (["gen", "--n", "4", "--support", "3-5", "--out", "G"], 1),
        # A plain-file output onto another dataset's payload.
        (["extract", "--in", "X", "--threshold", "1", "--out", "T"], 1),
        (["iobench", "--dir", ".", "--file-gb", "0.001", "--csv", "T"], 1),
    ], ids=["extract-onto-payload", "extract-onto-sidecar", "gen-seed",
            "coverage-seed", "iobench-seed", "fold-seed", "file-gb-nan",
            "file-gb-inf", "file-gb-tiny", "io-block-bytes-12",
            "oracle-no-output", "gen-dout-onto-matrix", "support-dash",
            "extract-onto-dataset", "iobench-csv-onto-dataset"])
    def test_refused(self, capsys, workdir, monkeypatch, argv, code):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before refusing the arguments")

        for name in ("noisy.extract_above_dataset", "noisy.gen",
                     "iobench.sweep", "subspace.coverage_simulate",
                     "subspace.random_full_rank", "external.run_external_blocked",
                     "cli.wht_bruteforce"):
            monkeypatch.setattr(f"bigwht.{name}", no_work)
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        got, out, err = run_capture(capsys, argv)
        assert got == code
        assert out == ""
        assert "Traceback" not in err
        assert re.match(r"(Error|error): \S", err.splitlines()[-1])
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


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
                capsys, ["gen", "--seed", "11", "--n", "5", "--support", "1:32",
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

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_refused(self, capsys, tmp_path, sigma):
        out = tmp_path / "a.bin"
        code, _, err = run_capture(
            capsys, ["gen", "--n", "4", "--support", "1:16", "--noise",
                     "gaussian", "--sigma", sigma, "--out", str(out)]
        )
        assert code == 3
        assert "sigma" in err
        assert list(tmp_path.iterdir()) == []

    def test_sigma_beyond_int64_refused(self, capsys, tmp_path):
        out = tmp_path / "a.bin"
        code, _, err = run_capture(
            capsys, ["gen", "--n", "4", "--support", "0:16", "--noise",
                     "rademacher", "--sigma", "1e19", "--out", str(out)]
        )
        assert code == 3
        assert "overflow" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_is_one_line_io_error(self, capsys, tmp_path,
                                                monkeypatch):
        # The allocation is patched: a real n in [30, 60) may be granted
        # by an overcommitting host and then get the process OOM-killed.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(np, "zeros", refuse)
        code, out, err = run_capture(
            capsys, ["gen", "--n", "20", "--out", str(tmp_path / "a.bin")])
        assert code == 2
        assert err == "error: out of memory: Unable to allocate 8.00 EiB\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_mem_threaded(self, capsys, tmp_path, monkeypatch):
        a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        rng = np.random.default_rng(5)
        data = rng.integers(-99, 99, 1 << 8).astype(np.int64)
        dataset.write_signal(a, data)
        dataset.write_signal(b, data)
        set_cpus(monkeypatch, 1)
        assert run(["transform", "mem", "--in", a]) == 0
        set_cpus(monkeypatch, 4)
        assert run(["transform", "mem", "--in", b]) == 0
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()

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

    def test_ext_budget_below_one_refused(self, capsys, tmp_path):
        # Without --io-block-bytes, S defaults from B: B = 0 must be
        # refused before that default is worked out.
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.zeros(16, dtype=np.int64))
        code, _, err = run_capture(
            capsys, ["transform", "ext", "--in", path, "-b", "0"])
        assert code == 3
        assert "mem_log2" in err

    def test_double_transform_refused(self, capsys, tmp_path):
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.zeros(16, dtype=np.int64))
        assert run(["transform", "mem", "--in", path]) == 0
        code, _, _ = run_capture(capsys, ["transform", "mem", "--in", path])
        assert code == 3


class TestInterruptedDataset:
    """A dataset an external transform left between passes is neither
    signal nor spectrum; only 'transform ext --resume' may touch it."""

    @pytest.fixture
    def interrupted(self, tmp_path):
        from bigwht.errors import IoFailure
        from bigwht.external import run_external_blocked
        path = str(tmp_path / "sig.bin")
        rng = np.random.default_rng(12)
        data = rng.integers(-99, 99, 1 << 10).astype(np.int64)
        dataset.write_signal(path, data)
        with dataset.open_validated(path) as ds:
            reads = {"n": 0}

            def hook(op, start, count):
                reads["n"] += op == "read"
                if reads["n"] > 4:  # first read after pass 0's 4 superblocks
                    raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)
        with dataset.open_validated(path) as ds:
            assert ds.progress_marker["passes_done"] == 1
            assert ds.progress_marker["writing"] is False
        return path, data

    @pytest.mark.parametrize("argv", [
        ["transform", "mem", "--in", "{in}"],
        ["oracle", "--in", "{in}", "--out", "{tmp}/o.bin"],
        ["oracle", "--in", "{good}", "--expect", "{in}"],
        ["snr", "--in", "{in}", "--sigma", "1"],
        ["fold", "--in", "{in}", "--matrix", "{tmp}/m.txt", "--out",
         "{tmp}/f.bin", "--gen-dout", "4"],
        ["extract", "--in", "{in}", "--threshold", "1"],
    ])
    def test_refused(self, capsys, tmp_path, interrupted, argv):
        path, _ = interrupted
        good = str(tmp_path / "good.bin")
        dataset.write_signal(good, np.arange(1 << 10, dtype=np.int64))
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        argv = [a.format(**{"in": path, "tmp": tmp_path, "good": good})
                for a in argv]
        code, _, err = run_capture(capsys, argv)
        assert code == 3
        assert "--resume" in err
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar
        assert not (tmp_path / "o.bin").exists()
        assert not (tmp_path / "f.bin").exists()
        assert not (tmp_path / "m.txt").exists()

    def test_resume_finishes(self, capsys, interrupted):
        path, data = interrupted
        assert run(["transform", "ext", "--in", path, "--mem-log2", "8",
                    "--io-block-bytes", "128", "--resume"]) == 0
        capsys.readouterr()
        arr, _, domain = dataset.read_signal(path)
        assert domain == "walsh"
        assert np.array_equal(arr, fwht_inplace(Signal(data.copy())).data)


class TestFailedRun:
    """What a failed transform leaves behind: nothing at all when it failed
    before its first write, else a marker every command refuses."""

    @pytest.mark.parametrize("argv", [
        ["transform", "mem", "--in", "{in}"],
        ["transform", "ext", "--in", "{in}", "--mem-log2", "8"],
    ])
    def test_overflow_leaves_dataset_untouched(self, capsys, tmp_path, argv):
        path = str(tmp_path / "big.bin")
        dataset.write_signal(path, np.full(1 << 10, 1 << 60, dtype=np.int64))
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        argv = [a.format(**{"in": path}) for a in argv]
        code, _, _ = run_capture(capsys, argv)
        assert code == 3
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar
        code, _, _ = run_capture(capsys, ["snr", "--in", path, "--sigma", "1"])
        assert code == 0

    def test_overflow_in_later_superblock_leaves_dataset_untouched(
            self, capsys, tmp_path):
        # Superblocks 0 and 1 are already written when superblock 2 fails
        # the bound check; the engine undoes them.
        path = str(tmp_path / "big.bin")
        data = np.zeros(1 << 10, dtype=np.int64)
        data[600] = 1 << 60
        dataset.write_signal(path, data)
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        code, _, _ = run_capture(
            capsys, ["transform", "ext", "--in", path, "--mem-log2", "8"])
        assert code == 3
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar
        code, _, _ = run_capture(capsys, ["snr", "--in", path, "--sigma", "1"])
        assert code == 0

    def test_half_written_ext_rerun_names_rebuild(self, capsys, tmp_path):
        # Without --resume the refusal must still name the rebuild: pointing
        # to --resume would only lead to a second refusal.
        from bigwht.errors import IoFailure
        from bigwht.external import run_external_blocked
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.arange(1 << 10, dtype=np.int64))
        with dataset.open_validated(path) as ds:
            def hook(op, start, count):
                if op == "write" and start > 0:
                    raise IoFailure("injected kill")

            ds.fault_hook = hook
            with pytest.raises(IoFailure):
                run_external_blocked(ds, 8, io_block_elems=1 << 4)
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        assert json.loads(sidecar)["pass_progress"]["writing"] is True
        code, _, err = run_capture(
            capsys, ["transform", "ext", "--in", path, "--mem-log2", "8"])
        assert code == 3
        assert "Rebuild" in err
        assert "resume=True" not in err
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar

    def test_half_written_mem_refused_on_rerun(self, capsys, tmp_path,
                                               monkeypatch):
        path = str(tmp_path / "sig.bin")
        dataset.write_signal(path, np.arange(1 << 10, dtype=np.int64))
        real = os.pwritev
        calls = []

        def half_then_fail(fd, buffers, offset):
            calls.append(offset)
            if len(calls) > 1:
                raise OSError(errno.EIO, "injected write failure")
            return real(fd, [buffers[0][: len(buffers[0]) // 2]], offset)

        with monkeypatch.context() as m:
            m.setattr(os, "pwritev", half_then_fail)
            code, _, _ = run_capture(capsys, ["transform", "mem", "--in", path])
        assert code == 2
        assert calls == [0, 4096]
        payload = Path(path).read_bytes()
        sidecar = Path(dataset.sidecar_path(path)).read_text()
        assert json.loads(sidecar)["pass_progress"]["writing"] is True
        code, _, err = run_capture(capsys, ["transform", "mem", "--in", path])
        assert code == 3
        assert "rebuilt" in err
        assert "--resume" not in err
        assert Path(path).read_bytes() == payload
        assert Path(dataset.sidecar_path(path)).read_text() == sidecar


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

    def test_refuses_walsh_input(self, capsys, tmp_path):
        src = str(tmp_path / "w.bin")
        dataset.write_signal(src, np.array([4, 0, 0, 0], dtype=np.int64),
                             domain="walsh")
        code, out, err = run_capture(capsys, ["oracle", "--in", src, "--out",
                                              str(tmp_path / "o.bin")])
        assert code == 3
        assert out == ""
        assert "walsh domain; expected time" in err
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["w.bin", "w.bin.meta.json"]

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

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    def test_extract_out_writes_csv(self, capsys, tmp_path, mode):
        path = str(tmp_path / "w.bin")
        csv_path = tmp_path / "hits.csv"
        dataset.write_signal(path, np.array([10, -2, -4, 0], dtype=np.int64),
                             domain="walsh")
        code, out, err = run_capture(
            capsys, mode + ["extract", "--in", path, "--threshold", "4",
                            "--out", str(csv_path)])
        assert code == 0
        assert csv_path.read_text() == "index,coefficient\n0,10\n2,-4\n"
        if mode:
            assert json.loads(out)["count"] == 2
            assert err == ""
        else:
            assert out == ""
            assert err == f"wrote 2 coefficients to {csv_path}\n"

    def test_snr_infinite_as_json_strings(self, capsys, tmp_path):
        path = str(tmp_path / "c.bin")
        dataset.write_signal(path, np.ones(16, dtype=np.int64))
        code, out, _ = run_capture(capsys, ["--json", "snr", "--in", path,
                                            "--sigma", "0"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["snr_linear"], doc["snr_db"], doc["infinite"]) \
            == ("inf", "inf", True)

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

    def test_snr_underflowing_sigma_is_infinite(self, capsys, tmp_path):
        # 2**6 * (1e-200)**2 underflows to 0.0, which reads as sigma = 0.
        path = str(tmp_path / "c.bin")
        dataset.write_signal(path, np.ones(64, dtype=np.int64))
        docs = []
        for sigma in ("1e-200", "0"):
            code, out, _ = run_capture(capsys, ["--json", "snr", "--in", path,
                                                "--sigma", sigma])
            assert code == 0
            docs.append(json.loads(out))
        for doc in docs:
            assert (doc["snr_linear"], doc["snr_db"], doc["infinite"],
                    doc["noise_walsh_variance"]) == ("inf", "inf", True, 0.0)

    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e200"])
    def test_snr_non_finite_sigma_refused(self, capsys, tmp_path, sigma):
        path = str(tmp_path / "c.bin")
        dataset.write_signal(path, np.ones(16, dtype=np.int64))
        code, out, _ = run_capture(capsys, ["--json", "snr", "--in", path,
                                            "--sigma", sigma])
        assert code == 3
        assert out == ""

    def test_extract_nan_threshold_refused(self, capsys, tmp_path):
        path = str(tmp_path / "w.bin")
        dataset.write_signal(path, np.array([10, -2, -4, 0], dtype=np.int64),
                             domain="walsh")
        code, out, err = run_capture(capsys, ["extract", "--in", path,
                                              "--threshold", "nan"])
        assert code == 3
        assert out == ""
        assert "tau" in err


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

    @pytest.mark.parametrize("flag", ["--tcp", "--io-overhead"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_input_refused(self, capsys, flag, value):
        code, out, _ = run_capture(
            capsys, ["--json", "plan", "--n", "32", "--b", "30", flag, value]
        )
        assert code == 3
        assert out == ""


    @pytest.mark.parametrize("argv", [
        ["plan", "--n", "2000", "--b", "30"],
        ["--json", "plan", "--n", "40", "--b", "30", "--tcp", "1e308",
         "--io-overhead", "1e10"],
    ])
    def test_runtime_beyond_float_refused(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: the modelled runtime")


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

    def test_default_blocks_are_the_library_default(self):
        from bigwht import iobench
        from bigwht.cli import _parse_size, iobench_cmd
        default = next(p.default for p in iobench_cmd.params
                       if p.name == "blocks")
        assert tuple(_parse_size(tok) for tok in default.split(",")) \
            == iobench.DEFAULT_BLOCK_SIZES

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_all_failed_sweep_is_io_error(self, capsys, tmp_path, json_flag):
        # The failed row is still reported before the exit code says so.
        code, out, err = run_capture(
            capsys, json_flag + ["iobench", "--dir", str(tmp_path / "none"),
                                 "--file-gb", "0.001", "--no-raw",
                                 "--blocks", "64K"])
        assert code == 2
        if json_flag:
            assert json.loads(out)["rows"][0]["error"]
        else:
            assert f"{64 << 10:>12} failed: " in out
        assert err.splitlines()[-1] == "error: every block size failed"

    def test_one_failed_row_of_two_succeeds(self, capsys, tmp_path,
                                            monkeypatch):
        from bigwht import iobench
        from bigwht.errors import IoFailure
        real_copy = iobench.measure_copy

        def first_fails(directory, file_bytes, block_bytes, *args, **kwargs):
            if block_bytes == 64 << 10:
                raise IoFailure("injected")
            return real_copy(directory, file_bytes, block_bytes, *args,
                             **kwargs)

        monkeypatch.setattr(iobench, "measure_copy", first_fails)
        code, out, _ = run_capture(
            capsys, ["iobench", "--dir", str(tmp_path), "--file-gb", "0.001",
                     "--no-raw", "--blocks", "64K,256K"])
        assert code == 0
        assert "failed: injected" in out

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
            capsys, ["fold", "--seed", "5", "--in", src, "--matrix", matrix,
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

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_coverage_sample_count_below_one_refused(self, capsys, count):
        code, out, err = run_capture(
            capsys, ["coverage", "--din", "30", "--dout", "2", "--machines",
                     "2", "--sample-count", count])
        assert code == 3
        assert "sample_count" in err
        assert out == ""

    @pytest.mark.parametrize("din, code", [(64, 3), (63, 0)])
    def test_coverage_index_width(self, capsys, din, code):
        # Indices are int64: 63 input bits fit, 64 are refused cleanly.
        got, out, err = run_capture(
            capsys, ["coverage", "--din", str(din), "--dout", "2",
                     "--machines", "1", "--trials", "1",
                     "--sample-count", "10"]
        )
        assert got == code
        assert "Traceback" not in err
        assert ("63 bits" in err) == (code == 3)


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


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestPinnedOutput:
    """The exact JSON document and text of each command, in both modes, so
    a change to how the CLI reports cannot change what it prints."""

    @pytest.fixture
    def signals(self, tmp_path):
        paths = [str(tmp_path / f"{name}.bin") for name in "abc"]
        for path in paths:
            dataset.write_signal(path, np.arange(64, dtype=np.int64))
        return paths

    def test_transform_mem(self, capsys, signals):
        a, b, _ = signals
        code, out, err = run_capture(
            capsys, ["--json", "transform", "mem", "--in", a])
        assert (code, err) == (0, "")
        assert out == _json_text({"schema_version": 1,
                                  "command": "transform mem",
                                  "in": a, "n": 6})
        assert run_capture(capsys, ["transform", "mem", "--in", b]) \
            == (0, "", f"transformed {b} in memory\n")

    def test_transform_ext(self, capsys, signals):
        a, b, c = signals
        code, out, err = run_capture(
            capsys, ["--json", "transform", "ext", "--in", a,
                     "--mem-log2", "4"])
        assert (code, err) == (0, "")
        assert out == _json_text({
            "schema_version": 1, "command": "transform ext", "in": a,
            "n": 6, "mem_log2": 4, "mode": "blocked", "io_block_elems": 8,
            "passes": 3, "passes_executed": 3, "resumed_from": 0})
        assert run_capture(capsys, ["transform", "ext", "--in", b,
                                    "--mem-log2", "4"]) \
            == (0, "", f"transformed {b} out of core: q=3 passes "
                       f"(3 executed this run)\n")
        assert run_capture(capsys, ["--quiet", "transform", "ext", "--in", c,
                                    "--mem-log2", "4"]) \
            == (0, "", "")

    def test_oracle(self, capsys, signals, tmp_path):
        a, b, _ = signals
        assert run(["transform", "mem", "--in", b]) == 0
        capsys.readouterr()
        out_path = str(tmp_path / "o.bin")
        code, out, err = run_capture(
            capsys, ["--json", "oracle", "--in", a, "--out", out_path,
                     "--expect", b])
        assert (code, err) == (0, "")
        assert out == _json_text({"schema_version": 1, "command": "oracle",
                                  "in": a, "out": out_path, "expect": b,
                                  "matches": True})
        assert run_capture(capsys, ["oracle", "--in", a, "--expect", b]) \
            == (0, "match\n", "")
        assert run_capture(capsys, ["oracle", "--in", a, "--out",
                                    str(tmp_path / "o2.bin")]) == (0, "", "")
        assert run_capture(capsys, ["oracle", "--in", a, "--expect", a]) \
            == (3, "MISMATCH\n", "")

    def test_fold(self, capsys, signals, tmp_path):
        from bigwht.subspace import random_full_rank, save_map
        a, _, _ = signals
        matrix = str(tmp_path / "map.txt")
        save_map(random_full_rank(6, 3, seed=4), matrix)
        f1, f2 = str(tmp_path / "f1.bin"), str(tmp_path / "f2.bin")
        code, out, err = run_capture(
            capsys, ["--json", "fold", "--in", a, "--matrix", matrix,
                     "--out", f1])
        assert (code, err) == (0, "")
        assert out == _json_text({"schema_version": 1, "command": "fold",
                                  "in": a, "matrix": matrix, "out": f1,
                                  "d_in": 6, "d_out": 3})
        assert run_capture(capsys, ["fold", "--in", a, "--matrix", matrix,
                                    "--out", f2]) \
            == (0, "", f"folded {a} (6 -> 3 bits) into {f2}\n")

    def test_plan_table(self, capsys):
        hours = {32: (0.6066666666666667, 0.4661111111111111),
                 33: (1.4944444444444445, 1.2133333333333334),
                 34: (3.551111111111111, 2.988888888888889),
                 35: (8.226666666666667, 7.102222222222222),
                 36: (18.702222222222222, 16.453333333333333),
                 37: (41.90222222222222, 37.404444444444444),
                 38: (92.8, 83.80444444444444),
                 39: (203.5911111111111, 185.6),
                 40: (443.1644444444444, 407.1822222222222)}
        code, out, err = run_capture(capsys, ["--json", "plan", "--table"])
        assert (code, err) == (0, "")
        assert out == _json_text({
            "schema_version": 1, "command": "plan",
            "table": [{"n": n, "hours": {"29": h29, "30": h30}}
                      for n, (h29, h30) in hours.items()]})
        assert run_capture(capsys, ["plan", "--table"]) == (0, (
            "   n  B=29 (h)  B=30 (h)\n"
            "  32     0.61     0.47\n"
            "  33     1.49     1.21\n"
            "  34     3.55     2.99\n"
            "  35     8.23     7.10\n"
            "  36    18.70    16.45\n"
            "  37    41.90    37.40\n"
            "  38    92.80    83.80\n"
            "  39   203.59   185.60\n"
            "  40   443.16   407.18\n"), "")

    def test_iobench(self, capsys, tmp_path):
        argv = ["iobench", "--dir", str(tmp_path), "--file-gb", "0.0001",
                "--blocks", "4K,16K", "--no-raw"]
        code, out, err = run_capture(capsys, ["--json"] + argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert out == _json_text(doc)
        assert re.fullmatch(r"(copy time decreased from|no copy-time "
                            r"improvement from larger blocks).*",
                            doc.pop("annotation"))
        rows = doc.pop("rows")
        assert doc == {"schema_version": 1, "command": "iobench",
                       "file_bytes": 107374, "direct_io": False}
        for row, (block, transfers) in zip(rows, [(4096, 27), (16384, 7)],
                                           strict=True):
            assert row.pop("seconds") > 0 and row.pop("mbps") > 0
            assert row == {"block_bytes": block, "transfers": transfers,
                           "read_mbps": None, "write_mbps": None,
                           "warnings": [], "error": None}
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines(keepends=True)
        assert lines[:2] == [
            "file size: 107374 bytes, direct I/O off\n",
            "       block     copy s  copy MB/s  read MB/s write MB/s\n"]
        for line, block in zip(lines[2:4], (4096, 16384), strict=True):
            assert re.fullmatch(rf" +{block} +\d+\.\d{{3}} +\d+\.\d{{2}} +- +-\n",
                                line)
        assert len(lines) == 5 and lines[4].startswith(("copy time", "no copy"))
        assert not list(tmp_path.iterdir())
