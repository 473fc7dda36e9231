import json

import numpy as np
import pytest

from ecc import DgpConfig, generate_paired, parse_curve_file, write_curve_file
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


@pytest.mark.parametrize(
    "content",
    [
        b"1,2\n\xff\xfe,3\n",  # invalid UTF-8
        b"1," + b"9" * 200_000 + b"\n",  # csv.Error: field larger than the csv field limit
    ],
    ids=["invalid-utf8", "oversized-field"],
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
