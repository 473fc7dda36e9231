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
from ecc import DgpConfig, generate_paired, parse_curve_file, write_curve_file
from ecc.curves import _row_blocks
from ecc.curveio import _csv_blocks, format_curves
from ecc.cli import main


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


def test_cli_import_loads_no_scipy():
    # the runtime dependency is numpy only; importing SciPy would cost every command about a second
    probe = "import sys, ecc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(ecc.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


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


def test_hill_series_csv(capsys, sample_files):
    xp, _ = sample_files
    code, out, _ = run_cli(capsys, "hill", "--input", xp, "--kmax", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,alpha,lo,hi"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 1


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


_TINY_EXPERIMENT = "rho_xy = 0.5\nalpha = 3\nn = 60\nreps = 2\nk_method = fixed\nk = 8\nj = 20\n"


@pytest.mark.parametrize("extra,argv,name", [
    ("seed = 3\n", ["--threads", "0"], "threads"),
    ("seed = 3\n", ["--threads", "-3"], "threads"),
    ("seed = -4\n", [], "seed"),
    ("seed = 3\nnoise_variance = nan\n", [], "noise_variance"),
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
    assert len(calls) == output
    assert len(seen) == output and all(name.endswith(".tmp") for name in seen)  # it failed mid-stream
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
