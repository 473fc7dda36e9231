import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ecc
from ecc import DgpConfig, estimate_pipeline, generate_paired, invert_oracle, parse_curve_file, write_curve_file
from ecc.curves import _row_blocks
from ecc.curveio import _csv_blocks, format_curves
from ecc.cli import _emit, main
from ecc.errors import DomainError, ParseError
from ecc.simulate import _paired_blocks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sample_files(tmp_path):
    cfg = DgpConfig(rho=0.8, alpha=3.0, n=120, J=40, seed=31)
    x, y = generate_paired(cfg)
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_curve_file(xp, x)
    write_curve_file(yp, y)
    return str(xp), str(yp)


def test_estimate_json_report(capsys, sample_files):
    xp, yp = sample_files
    code, out, _ = run_cli(capsys, "estimate", "--x", xp, "--y", yp, "--k", "20")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["k"] == 20
    assert -1.0 <= report["rho_xy"] <= 1.0
    assert report["tail_x"]["k"] == 20
    assert len(report["exceedance_indices"]) >= 20


def test_estimate_kselect_methods(capsys, sample_files):
    xp, yp = sample_files
    for method in ("mindist", "ks"):
        code, out, _ = run_cli(capsys, "estimate", "--x", xp, "--y", yp, "--kselect", method)
        assert code == 0
        assert json.loads(out)["k_method"] == method


def test_estimate_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "estimate", "--x", str(tmp_path / "no.csv"), "--y", str(tmp_path / "no.csv")
    )
    assert code == 2
    error = json.loads(err)["error"]
    assert error["code"] == 2
    assert error["operation"] == "estimate"


def test_estimate_domain_error_exits_3(capsys, tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("1,2\n3,4\n")
    code, _, err = run_cli(capsys, "estimate", "--x", str(p), "--y", str(p), "--k", "10")
    assert code == 3
    assert json.loads(err)["error"]["type"] in ("DomainError", "DegenerateSampleError")


@pytest.mark.parametrize("argv,name", [
    (["--tau", "nan"], "tau"),
    (["--alpha-target", "inf"], "alpha_target"),
    (["--alpha-target", "nan"], "alpha_target"),
])
def test_estimate_non_finite_parameter_exits_3_naming_it(capsys, sample_files, argv, name):
    xp, yp = sample_files
    code, out, err = run_cli(capsys, "estimate", "--x", xp, "--y", yp, *argv)
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"].startswith(f"{name} must be")


@pytest.mark.parametrize("source,target,name", [("nan", "3", "alpha_source"), ("3", "inf", "alpha_target")])
def test_transform_non_finite_alpha_exits_3_naming_it(capsys, sample_files, source, target, name):
    code, _, err = run_cli(capsys, "transform", "--input", sample_files[0],
                           "--alpha-source", source, "--alpha-target", target)
    assert code == 3
    assert _error(err)["message"].startswith(f"{name} must be")


def test_estimate_overflowing_norms_exit_3(capsys, tmp_path, sample_files):
    big = tmp_path / "big.csv"
    write_curve_file(big, parse_curve_file(sample_files[0]) * 1e160)
    code, _, err = run_cli(capsys, "estimate", "--x", str(big), "--y", sample_files[1])
    assert code == 3
    assert _error(err)["message"] == "x: curve norms overflow"


@pytest.mark.parametrize("no_center, message", [([], "the mean curve overflows"),
                                                 (["--no-center"], "curve norms overflow")])
@pytest.mark.parametrize("argv, name", [
    (["chi", "--x", "x.csv", "--y", "big.csv"], "y"),
    (["chi", "--x", "big.csv", "--y", "y.csv"], "x"),
    (["hill", "--input", "big.csv"], "input"),
])
def test_chi_and_hill_overflows_name_the_margin(capsys, tmp_path, monkeypatch, sample_files, argv, name,
                                                no_center, message):
    monkeypatch.chdir(tmp_path)
    write_curve_file("big.csv", np.full((120, 40), 1e307))  # its column sums and squares overflow
    code, _, err = run_cli(capsys, *argv, *no_center)
    assert code == 3
    assert _error(err)["message"] == f"{name}: {message}"


def test_cli_import_loads_no_scipy():
    # the runtime dependency is numpy only; importing SciPy would cost every command about a second
    probe = "import sys, ecc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(ecc.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # only an experiment with more than one worker uses concurrent.futures, which also loads logging
    probe = ("import sys, ecc.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))")
    env = {**os.environ, "PYTHONPATH": str(Path(ecc.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_chi_takes_x_norms_before_it_reads_y(capsys, tmp_path, monkeypatch):
    # chi holds one margin at a time, so a domain error in x comes before a parse error in y
    monkeypatch.chdir(tmp_path)
    write_curve_file("big.csv", np.full((120, 40), 1e307))  # its column sums overflow
    Path("bad.csv").write_text("1,2\n3\n")
    code, _, err = run_cli(capsys, "chi", "--x", "big.csv", "--y", "bad.csv")
    assert code == 3
    assert _error(err)["message"] == "x: the mean curve overflows"
    code, _, err = run_cli(capsys, "chi", "--x", "bad.csv", "--y", "big.csv")
    assert code == 2
    assert _error(err)["type"] == "ParseError"


def test_pairwise_matrix_csv(capsys, tmp_path, sample_files):
    xp, yp = sample_files
    meta_path = tmp_path / "meta.json"
    code, out, _ = run_cli(
        capsys, "pairwise", "--inputs", xp, yp, "--k", "15", "--json", str(meta_path)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",x,y"
    cells = np.array([row.split(",")[1:] for row in lines[1:]], dtype=float)
    assert cells.shape == (2, 2)
    assert cells[0, 0] == 1.0 and cells[1, 1] == 1.0
    assert cells[0, 1] == cells[1, 0]
    meta = json.loads(meta_path.read_text())
    assert meta["labels"] == ["x", "y"]
    assert meta["pairs"][0]["k"] == 15


def test_pairwise_inputs_sharing_a_stem_are_labelled_by_their_paths(capsys, tmp_path, sample_files, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for d, src in (("a", sample_files[0]), ("b", sample_files[1])):
        os.mkdir(d)
        os.link(src, Path(d) / "s.csv")
    code, out, _ = run_cli(capsys, "pairwise", "--inputs", "a/s.csv", "b/s.csv", "--k", "15",
                           "--json", "meta.json")
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["", "a/s.csv", "b/s.csv"]
    meta = json.loads(Path("meta.json").read_text())
    assert meta["labels"] == ["a/s.csv", "b/s.csv"]
    assert (meta["pairs"][0]["a"], meta["pairs"][0]["b"]) == ("a/s.csv", "b/s.csv")


def test_hill_series_csv(capsys, sample_files):
    xp, _ = sample_files
    code, out, _ = run_cli(capsys, "hill", "--input", xp, "--kmax", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,alpha,lo,hi"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 1


def test_hill_default_kmax_is_the_pipelines_rule(capsys, tmp_path, monkeypatch):
    # uncentered, a zero curve has norm 0: the series runs to the count of positive norms minus 1
    monkeypatch.chdir(tmp_path)
    x, y = generate_paired(DgpConfig(rho=0.5, alpha=3.0, n=300, J=10, seed=4))
    x[7] = 0.0
    write_curve_file("x.csv", x)
    code, out, err = run_cli(capsys, "hill", "--input", "x.csv", "--no-center")
    assert code == 0, err
    series = estimate_pipeline(x, y, do_center=False).hill_x
    rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
    assert rows[:, 0].tolist() == series.k.tolist() == list(range(1, 299))
    assert np.array_equal(rows[:, 1], series.alpha_hat)


def test_hill_with_too_few_positive_norms_exits_3_naming_the_count(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    x = np.zeros((30, 4))
    x[0], x[1] = 5.0, 3.0  # uncentered, two positive norms
    write_curve_file("x.csv", x)
    code, out, err = run_cli(capsys, "hill", "--input", "x.csv", "--no-center")
    assert (code, out) == (3, "")
    assert _error(err)["message"] == "need at least 3 positive values, got 2"


def test_estimate_hill_fit_whose_top_ratio_overflows_is_not_zero(capsys, tmp_path, monkeypatch):
    # five huge constant curves over a tiny body: V_(1) / V_(k+1) overflows for every k up to 195
    monkeypatch.chdir(tmp_path)
    x = np.abs(np.random.default_rng(5).standard_normal((200, 10))) * 1e-156 + 1e-156
    x[:5] = 1e153 * np.array([0.5, 0.6, 0.7, 0.8, 0.9])[:, None]
    write_curve_file("x.csv", x)
    code, out, err = run_cli(capsys, "estimate", "--x", "x.csv", "--y", "x.csv", "--k", "5", "--no-center",
                             "--tau", "inf")
    assert (code, err) == (0, "")
    series = ecc.hill_series(ecc.norms(x), 20).alpha_hat
    assert json.loads(out)["tail_x"]["alpha_hat"] == pytest.approx(series[4], rel=1e-12, abs=0)
    fit = ecc.select_k_mindist(ecc.norms(x))  # the marginal mindist fit of the same norms
    assert fit.alpha_hat == pytest.approx(series[fit.k - 1], rel=1e-12, abs=0)


def test_pairwise_rejects_a_path_given_twice(capsys, sample_files):
    xp, yp = sample_files
    code, out, err = run_cli(capsys, "pairwise", "--inputs", xp, yp, xp)
    assert (code, out) == (3, "")
    assert _error(err)["message"] == f"pairwise input {xp!r} is given more than once"


def test_chi_series_csv(capsys, sample_files):
    xp, yp = sample_files
    code, out, _ = run_cli(capsys, "chi", "--x", xp, "--y", yp, "--qgrid", "0.5:0.9:0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,chi,chibar,chi_lo,chi_hi,chibar_lo,chibar_hi,raw_chibar"
    assert len(lines) == 1 + 5


def test_simulate_round_trip(capsys, tmp_path):
    out_x, out_y = str(tmp_path / "sx.csv"), str(tmp_path / "sy.csv")
    args = [
        "simulate", "--rho-xy", "0.9", "--alpha", "3", "--n", "50", "--J", "25",
        "--seed", "7", "--out-x", out_x, "--out-y", out_y,
    ]
    assert run_cli(capsys, *args)[0] == 0
    x1 = parse_curve_file(out_x)
    assert x1.shape == (50, 25)
    # identical invocation is bit-identical
    assert run_cli(capsys, *args)[0] == 0
    assert np.array_equal(parse_curve_file(out_x), x1)


def test_simulate_variants(capsys, tmp_path):
    for variant in ("bernoulli:0.5,0.5", "phase:0.3"):
        code, _, _ = run_cli(
            capsys, "simulate", "--alpha", "3", "--n", "30", "--J", "20", "--seed", "3",
            "--variant", variant,
            "--out-x", str(tmp_path / "vx.csv"), "--out-y", str(tmp_path / "vy.csv"),
        )
        assert code == 0
    code, _, err = run_cli(
        capsys, "simulate", "--alpha", "3", "--n", "30", "--J", "20", "--seed", "3",
        "--variant", "bogus:1",
        "--out-x", str(tmp_path / "vx.csv"), "--out-y", str(tmp_path / "vy.csv"),
    )
    assert code == 2
    assert json.loads(err)["error"]["operation"] == "simulate"


@pytest.mark.parametrize("variant,extra", [
    ("base", {}),
    ("bernoulli:0.5,0.6", {"variant": "bernoulli", "p_a": 0.5, "p_b": 0.6}),
    ("phase:0.3", {"variant": "phase", "delta": 0.3}),
], ids=["base", "bernoulli", "phase"])
def test_simulate_files_are_the_formatted_generate_paired_bytes(capsys, tmp_path, monkeypatch, variant, extra):
    monkeypatch.chdir(tmp_path)
    assert 1000 % _row_blocks(1000, 100)[0].stop != 0  # 163 rows per block: the last block is short
    rho = 0.0 if variant.startswith("bernoulli") else invert_oracle(0.7, 3.0)
    x, y = generate_paired(DgpConfig(rho=rho, alpha=3.0, n=1000, J=100, seed=4, **extra))
    argv = ("simulate", "--rho-xy", "0.7", "--alpha", "3", "--n", "1000", "--J", "100", "--seed", "4",
            "--variant", variant)
    assert run_cli(capsys, *argv, "--out-x", "x.csv", "--out-y", "y.csv")[0] == 0
    assert Path("x.csv").read_bytes() == format_curves(x).encode()
    assert Path("y.csv").read_bytes() == format_curves(y).encode()
    code, out, _ = run_cli(capsys, *argv, "--out-x", "-", "--out-y", "y2.csv")
    assert code == 0
    assert out.encode() == Path("x.csv").read_bytes()
    assert Path("y2.csv").read_bytes() == Path("y.csv").read_bytes()


@pytest.mark.parametrize("variant", ["base", "bernoulli:0.5,0.5"])
def test_simulate_with_n_too_large_for_memory_exits_3_naming_n(capsys, tmp_path, monkeypatch, variant):
    def no_memory(rng, alpha, size):
        raise MemoryError  # what drawing 1e12 scores raises on a host without 8 TB, allocating nothing here

    monkeypatch.setattr(ecc.simulate, "_pareto", no_memory)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--alpha", "3", "--n", "1000000000000", "--seed", "1",
                             "--variant", variant, "--out-x", "x.csv", "--out-y", "y.csv")
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"].startswith("n = 1000000000000 ")
    assert list(tmp_path.iterdir()) == []


def _no_memory_past(limit: int, real):
    """``real``, raising MemoryError where its first argument exceeds ``limit``, as making that many values
    would on a host without the memory, allocating nothing."""
    def guarded(size, *args, **kwargs):
        if np.prod(size) > limit:
            raise MemoryError
        return real(size, *args, **kwargs)

    return guarded


def test_resample_with_j_too_large_for_memory_exits_3_naming_j_target(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(ecc.curveio, "grid", _no_memory_past(10**6, ecc.curveio.grid))
    monkeypatch.chdir(tmp_path)
    write_curve_file("c.csv", np.ones((3, 4)))
    code, out, err = run_cli(capsys, "resample", "--input", "c.csv", "--J", "100000000000", "--output", "r.csv")
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"] == "J_target = 100000000000 grid points do not fit in memory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_experiment_with_n_too_large_for_memory_exits_3_naming_n(capsys, tmp_path, monkeypatch, threads):
    monkeypatch.setattr(np, "empty", _no_memory_past(10**9, np.empty))
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("rho_xy = 0.5\nalpha = 3\nn = 1000000000000\nreps = 2\nseed = 1\n")
    code, out, err = run_cli(capsys, "experiment", "--config", "run.cfg", "--threads", threads)
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"] == "n = 1000000000000 curves do not fit in memory"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_experiment_with_reps_too_large_for_memory_exits_3_naming_reps(capsys, tmp_path, monkeypatch, threads):
    # the check comes before one stream per replication is spawned, which would grind for tens of seconds
    monkeypatch.setattr(np, "empty", _no_memory_past(10**9, np.empty))
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("rho_xy = 0.5\nalpha = 3\nn = 300\nj = 20\nreps = 1000000000000\nseed = 1\n")
    code, out, err = run_cli(capsys, "experiment", "--config", "run.cfg", "--threads", threads)
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"] == "reps = 1000000000000 replications do not fit in memory"


def test_transform_stdout(capsys, tmp_path):
    p = tmp_path / "c.csv"
    sample = np.array([[3.0, 4.0], [0.3, 0.4]])
    write_curve_file(p, sample)
    code, out, _ = run_cli(
        capsys, "transform", "--input", str(p), "--alpha-source", "2", "--alpha-target", "4"
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    got = np.array(rows, dtype=float)
    assert got.shape == (2, 2)
    # norms move from r to r^(1/2)
    r0 = np.sqrt(np.sum(sample[0] ** 2) / 2)
    assert np.sqrt(np.sum(got[0] ** 2) / 2) == pytest.approx(np.sqrt(r0), rel=1e-12)


def test_experiment_runs_config(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "# tiny smoke experiment\n"
        "rho_xy = 0.0, 0.5\n"
        "alpha = 3\n"
        "n = 60\n"
        "reps = 4\n"
        "k_method = fixed\n"
        "k = 8\n"
        "seed = 11\n"
        "j = 20\n"
    )
    json_path = tmp_path / "exp.json"
    code, out, _ = run_cli(
        capsys, "experiment", "--config", str(config), "--out-json", str(json_path)
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,rho_xy,bias[n=60],se[n=60]"
    assert len(lines) == 3
    data = json.loads(json_path.read_text())
    assert data["schema_version"] == 1
    assert len(data["rows"]) == 2

    # identical run reproduces the same table
    code2, out2, _ = run_cli(capsys, "experiment", "--config", str(config))
    assert out2 == out


def test_experiment_threads_do_not_change_output(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 6\nk_method = fixed\nk = 8\nseed = 3\nj = 20\n"
    )
    _, out1, _ = run_cli(capsys, "experiment", "--config", str(config), "--threads", "1")
    _, out4, _ = run_cli(capsys, "experiment", "--config", str(config), "--threads", "4")
    assert out1 == out4


def test_experiment_missing_seed_exits_2(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 2\n")
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert "seed" in json.loads(err)["error"]["message"]


def test_resample_changes_grid(capsys, tmp_path):
    p = tmp_path / "c.csv"
    write_curve_file(p, np.array([[0.0, 1.0]]))
    code, out, _ = run_cli(capsys, "resample", "--input", str(p), "--J", "4")
    assert code == 0
    got = np.array(out.strip().split(","), dtype=float)
    assert np.allclose(got, [0.0, 0.0, 0.5, 1.0])


def test_experiment_threads_env_fallback(capsys, tmp_path, monkeypatch):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 4\nk_method = fixed\nk = 8\nseed = 3\nj = 20\n"
    )
    _, baseline, _ = run_cli(capsys, "experiment", "--config", str(config))
    monkeypatch.setenv("ECC_THREADS", "3")
    code, out, _ = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 0
    assert out == baseline


def _error(err):
    return json.loads(err)["error"]


def test_simulate_negative_seed_exits_3_naming_it(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--alpha", "3", "--n", "20", "--seed", "-1",
                           "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv"))
    assert code == 3
    assert _error(err)["message"].startswith("seed must be nonnegative")


def test_simulate_infinite_alpha_exits_3_naming_it(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--alpha", "inf", "--n", "20", "--seed", "1",
                           "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv"))
    assert code == 3
    assert _error(err)["message"] == "alpha must exceed 2 and be finite, got inf"
    assert not list(tmp_path.iterdir())


_TINY_EXPERIMENT = "rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 2\nk_method = fixed\nk = 8\nj = 20\n"


@pytest.mark.parametrize("extra,argv,name", [
    ("seed = 3\n", ["--threads", "0"], "threads"),
    ("seed = 3\n", ["--threads", "-3"], "threads"),
    ("seed = -4\n", [], "seed"),
    ("seed = 3\nnoise_variance = nan\n", [], "noise_variance"),
    ("seed = 3\nalpha = inf\n", [], "alpha"),
])
def test_experiment_bad_run_parameter_exits_3_naming_it(capsys, tmp_path, extra, argv, name):
    config = tmp_path / "exp.cfg"
    config.write_text(_TINY_EXPERIMENT + extra)
    code, out, err = run_cli(capsys, "experiment", "--config", str(config), *argv)
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"].startswith(f"{name} must")


@pytest.mark.parametrize("value,code,name", [("abc", 2, "ECC_THREADS"), ("0", 3, "threads")])
def test_experiment_bad_threads_env_exits_naming_it(capsys, tmp_path, monkeypatch, value, code, name):
    config = tmp_path / "exp.cfg"
    config.write_text(_TINY_EXPERIMENT + "seed = 3\n")
    monkeypatch.setenv("ECC_THREADS", value)
    got, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert got == code
    assert _error(err)["message"].startswith(f"{name} must")


@pytest.mark.parametrize(
    "content",
    [
        b"1,2\n\xff\xfe,3\n",  # invalid UTF-8
        b"1," + b"9" * 200_000 + b"\n",  # csv.Error: field larger than the csv field limit
        b"1_0,2\n3,4\n",  # float() reads 1_0 as 10
        "1,2\n\u0663,4\n".encode(),  # float() reads the Arabic-Indic digit as 3
        b'"a\n1,2\n',  # unclosed quote
    ],
    ids=["invalid-utf8", "oversized-field", "underscore-digit", "non-ascii-digit", "unclosed-quote"],
)
def test_estimate_unreadable_curve_file_exits_2(capsys, tmp_path, sample_files, content):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    code, _, err = run_cli(capsys, "estimate", "--x", str(bad), "--y", sample_files[1])
    assert code == 2
    assert _error(err)["type"] == "ParseError"
    assert str(bad) in _error(err)["message"]


def test_estimate_directory_path_exits_2(capsys, tmp_path, sample_files):
    code, _, err = run_cli(capsys, "estimate", "--x", str(tmp_path), "--y", sample_files[1])
    assert code == 2
    assert _error(err)["type"] == "ParseError"


def test_experiment_unreadable_config_exits_2(capsys, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_bytes(b"rho_xy = 0.5\nalpha = \xff3\n")
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert _error(err)["type"] == "ParseError"
    code, _, _ = run_cli(capsys, "experiment", "--config", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("content, row", [
    (b"rho_xy = 0.5\nalpha = \xff3\n", 2),
    (b"rho_xy = 0.5\r\n# \xc3\xa9t\xc3\xa9\r\nalpha = 3\r\n\xc3\r\n", 4),  # valid UTF-8 on line 2
])
def test_experiment_invalid_utf8_config_names_its_line(capsys, tmp_path, content, row):
    config = tmp_path / "exp.cfg"
    config.write_bytes(content)
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert _error(err)["message"].startswith(f"{config}: cannot read as UTF-8 text ('utf-8' codec")
    assert _error(err)["message"].endswith(f"(row {row})")


def test_experiment_config_lines_end_only_at_line_ends(capsys, tmp_path):
    # str.splitlines would also split at form feeds and U+2028, making "alpha = 3" a line of its own
    config = tmp_path / "exp.cfg"
    config.write_text(_TINY_EXPERIMENT.replace("alpha = 3", "# note\x0c alpha = 4 \u2028alpha = 3") + "seed = 3\n",
                      encoding="utf-8")
    code, _, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert _error(err)["message"] == "experiment config is missing required key 'alpha'"


@pytest.mark.parametrize("lines,message", [
    (["noise_varience = 9"], "unknown experiment config key(s): 'noise_varience'"),
    (["thread = 2", "k_metod = ks"], "unknown experiment config key(s): 'thread', 'k_metod'"),
    (["k_method = mindist", "k = 20"], "config key 'k' needs k_method = fixed, got k_method = mindist"),
    (["k = 20"], "config key 'k' needs k_method = fixed, got k_method = mindist"),
    (["k_method = ks", "k = 20"], "config key 'k' needs k_method = fixed, got k_method = ks"),
])
def test_experiment_config_rejects_keys_it_would_ignore(capsys, tmp_path, lines, message):
    # a typo, or a k that no k rule but fixed reads, must not run the table as if it were absent
    config = tmp_path / "exp.cfg"
    config.write_text("rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 2\nseed = 3\nj = 20\n" + "\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "experiment", "--config", str(config))
    assert (code, out) == (2, "")
    assert _error(err) == {"code": 2, "operation": "experiment", "type": "ParseError", "message": message}


@pytest.mark.parametrize(
    "line", ["reps = 4, 7", "seed = 3, 4", "k = 8, 9", "j = 20, 30", "noise_variance = 0.25, 1", "reps ="]
)
def test_experiment_single_value_keys_take_exactly_one_value(capsys, tmp_path, line):
    base = {"rho_xy": "0.5", "alpha": "3", "n": "60", "reps": "4", "k_method": "fixed",
            "k": "8", "seed": "3", "j": "20"}
    key = line.split("=")[0].strip()
    base[key] = line.split("=", 1)[1].strip()
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    code, out, err = run_cli(capsys, "experiment", "--config", str(config))
    assert code == 2
    assert out == ""
    assert key in _error(err)["message"]


def test_estimate_degenerate_margin_is_named(capsys, tmp_path, sample_files):
    zeros = tmp_path / "zeros.csv"
    write_curve_file(zeros, np.zeros((120, 40)))
    code, _, err = run_cli(capsys, "estimate", "--x", sample_files[0], "--y", str(zeros))
    assert code == 3
    assert _error(err)["message"].startswith("y: ")


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=120),
        st.text(alphabet='0123456789.,-+e_\n\r" xnaif\u0663\xa0', max_size=120).map(str.encode),
    )
)
def test_estimate_on_arbitrary_bytes_never_exits_1(tmp_path_factory, content):
    directory = tmp_path_factory.mktemp("fuzz")
    x, y = directory / "x.csv", directory / "y.csv"
    x.write_bytes(content)
    y.write_text("1,2\n3,4\n5,6\n")
    assert main(["estimate", "--x", str(x), "--y", str(y), "--k", "1"]) in (0, 2, 3)


@pytest.mark.parametrize("qgrid", ["nan:0.9:0.1", "0.5:inf:0.1", "0.5:0.9:1e-300",
                                   "0.1:0.9:0", "0.1:0.9:-0.0"])
def test_chi_bad_qgrid_exits_3_naming_it(capsys, sample_files, qgrid):
    xp, yp = sample_files
    code, out, err = run_cli(capsys, "chi", "--x", xp, "--y", yp, "--qgrid", qgrid)
    assert code == 3
    assert out == ""
    assert _error(err)["type"] == "DomainError"
    assert _error(err)["message"].startswith(f"--qgrid {qgrid!r}")


@pytest.mark.parametrize("command,flag", [
    (["transform", "--alpha-source", "3", "--alpha-target", "2"], "--output"),
    (["pairwise"], "--json"),
    (["simulate"], "--out-y"),
    (["experiment"], "--out-json"),
])
def test_unwritable_output_exits_2_naming_the_path(capsys, tmp_path, sample_files, command, flag):
    target = str(tmp_path / "missing" / "out.txt")
    inputs = {
        "transform": ["--input", sample_files[0]],
        "pairwise": ["--inputs", *sample_files],
        "simulate": ["--alpha", "3", "--n", "30", "--J", "20", "--seed", "1",
                     "--out-x", str(tmp_path / "sx.csv")],
        "experiment": ["--config", str(tmp_path / "exp.cfg")],
    }[command[0]]
    (tmp_path / "exp.cfg").write_text(_TINY_EXPERIMENT + "seed = 3\n")
    code, _, err = run_cli(capsys, *command, *inputs, flag, target)
    assert code == 2
    assert _error(err)["type"] == "ParseError"
    assert _error(err)["message"].startswith(f"{target}: cannot write")


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "3", "--n", "10", "--J", "5", "--seed", "1", "--out-x", "x.csv", "--out-y", "missing/y.csv"],
    ["simulate", "--alpha", "3", "--n", "10", "--J", "5", "--seed", "1", "--out-x", "missing/x.csv", "--out-y", "y.csv"],
    ["simulate", "--alpha", "3", "--n", "10", "--J", "5", "--seed", "1", "--out-x", "x.csv", "--out-y", "."],
    ["experiment", "--config", "exp.cfg", "--out-csv", "table.csv", "--out-json", "missing/t.json"],
    ["pairwise", "--inputs", "a.csv", "b.csv", "--output", "m.csv", "--json", "missing/m.json"],
])
def test_failed_output_leaves_no_file_behind(capsys, tmp_path, monkeypatch, sample_files, argv):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "exp.cfg").write_text(_TINY_EXPERIMENT + "seed = 3\n")
    for name, src in zip(("a.csv", "b.csv"), sample_files):
        (work / name).write_bytes(Path(src).read_bytes())
    before = sorted(p.name for p in work.iterdir())
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert _error(err)["message"].split(":")[0] in argv
    assert sorted(p.name for p in work.iterdir()) == before


_SIM_SMALL = ("simulate", "--alpha", "3", "--n", "6", "--J", "4", "--seed", "2")


def _sim_small():
    return generate_paired(DgpConfig(rho=0.0, alpha=3.0, n=6, J=4, seed=2))  # --rho-xy defaults to 0


def test_two_flags_naming_one_file_keep_the_last_output(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, *_SIM_SMALL, "--out-x", "xy.csv", "--out-y", "xy.csv")
    assert code == 0
    assert (tmp_path / "xy.csv").read_text() == format_curves(_sim_small()[1])
    assert [p.name for p in tmp_path.iterdir()] == ["xy.csv"]


def test_output_through_a_symlink_replaces_its_file_and_keeps_the_link(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("real.csv").write_text("old\n")
    os.chmod("real.csv", 0o640)
    os.symlink("real.csv", "link.csv")
    code, _, _ = run_cli(capsys, *_SIM_SMALL, "--out-x", "link.csv", "--out-y", "y.csv")
    assert code == 0
    x, _ = _sim_small()
    assert os.readlink("link.csv") == "real.csv"
    assert Path("real.csv").read_text() == format_curves(x)
    assert os.stat("real.csv").st_mode & 0o777 == 0o640  # an existing file keeps its mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv", "y.csv"]


def test_output_to_a_fifo_is_written_through(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.mkfifo("x.pipe")
    reader = os.open("x.pipe", os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open; the sample fits the pipe buffer
    try:
        code, _, _ = run_cli(capsys, *_SIM_SMALL, "--out-x", "x.pipe", "--out-y", "y.csv")
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    x, y = _sim_small()
    assert data.decode() == format_curves(x)
    assert Path("x.pipe").is_fifo()
    assert Path("y.csv").read_text() == format_curves(y)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.pipe", "y.csv"]


@pytest.mark.parametrize("output,blocks", [(1, 1), (2, 0)],
                         ids=["after-the-first-block", "after-the-first-output"])
def test_an_error_while_streaming_an_output_leaves_no_file(capsys, tmp_path, monkeypatch, output, blocks):
    # a MemoryError in the block writer once `blocks` blocks of output number `output` are written
    import ecc.cli

    calls, seen = [], []

    def failing(sample):
        calls.append(sample)
        real = _csv_blocks(sample)
        if len(calls) != output:
            return real

        def stream():
            yield from itertools.islice(real, blocks)
            seen.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise MemoryError

        return stream()

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(ecc.cli, "_csv_blocks", failing)
    argv = ("simulate", "--alpha", "3", "--n", "400", "--J", "50", "--seed", "2")
    assert len(_row_blocks(400, 50)) > 1
    code, _, err = run_cli(capsys, *argv, "--out-x", "x.csv", "--out-y", "y.csv")
    assert code == 1
    assert _error(err)["type"] == "MemoryError"
    assert len(calls) == 2  # both outputs' block writers are made before either is written
    assert len(seen) == output and all(name.endswith(".tmp") for name in seen)  # it failed mid-stream
    assert list(tmp_path.iterdir()) == []


def test_streamed_samples_with_an_unwritable_output_leave_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    x, y = _paired_blocks(np.random.default_rng(2), DgpConfig(rho=0.5, alpha=3.0, n=400, J=50, seed=2))
    with pytest.raises(ParseError, match="^missing/y.csv: cannot write"):
        _emit((_csv_blocks(x), "x.csv"), (_csv_blocks(y), "missing/y.csv"))
    assert list(tmp_path.iterdir()) == []


def test_a_block_iterator_that_raises_after_its_first_block_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    x, y = _sim_small()

    def blocks():
        yield x[:3]
        yield np.full((1, x.shape[1]), np.nan)  # as_sample rejects it before its text is made

    with pytest.raises(DomainError, match="finite"):
        _emit((_csv_blocks(y), "y.csv"), (_csv_blocks(blocks()), "x.csv"))
    assert list(tmp_path.iterdir()) == []


def test_dev_stdout_redirected_to_a_file_keeps_what_else_the_file_holds(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ecc.__file__).parents[1])}
    command = (f"{{ echo before; {shlex.quote(sys.executable)} -m ecc.cli {' '.join(_SIM_SMALL)} "
               "--out-x /dev/stdout --out-y y.csv; echo after; } > f.txt")
    subprocess.run(["sh", "-c", command], cwd=tmp_path, env=env, check=True)
    x, y = _sim_small()
    assert (tmp_path / "f.txt").read_text() == "before\n" + format_curves(x) + "after\n"
    assert (tmp_path / "y.csv").read_text() == format_curves(y)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "y.csv"]


def test_dash_is_stdout_on_every_output_flag(capsys, tmp_path, monkeypatch, sample_files):
    monkeypatch.chdir(tmp_path)
    xp, yp = sample_files
    code, out, _ = run_cli(capsys, "simulate", "--alpha", "3", "--n", "5", "--J", "4", "--seed", "2",
                           "--out-x", "-", "--out-y", "-")
    assert code == 0
    assert len(out.splitlines()) == 10
    code, out, _ = run_cli(capsys, "pairwise", "--inputs", xp, yp, "--output", "-", "--json", "-")
    assert code == 0
    assert '"rho_matrix"' in out
    (tmp_path / "exp.cfg").write_text(_TINY_EXPERIMENT + "seed = 3\n")
    code, out, _ = run_cli(capsys, "experiment", "--config", "exp.cfg", "--out-csv", "-", "--out-json", "-")
    assert code == 0
    assert out.startswith("alpha,rho_xy") and '"rows"' in out
    assert not (tmp_path / "-").exists()
