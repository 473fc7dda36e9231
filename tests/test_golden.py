"""Golden CLI corpus: the exit code and the sha256 of stdout, stderr and every written file.

``tests/golden/manifest.json`` holds, per command, its argv, exit code and
hashes, with the NumPy version they were recorded under; ``tests/golden/<name>/``
holds the non-empty outputs themselves. Under the recorded NumPy version every
hash must match exactly. Under any version the outputs are also compared as
text with every number parsed: numbers agree to 1e-12 relative (so integers
such as k and indices agree exactly), everything else verbatim, and exit codes
exactly. That second check is what a runner with another NumPy still enforces.

Inputs are small (n = 300, J = 20) and written by ``generate_paired``, whose
bits ``tests/test_simulate.py`` pins. Commands run in-process through
``main(argv)`` with the inputs' directory as working directory, so no output
names a temporary path.

A change that means to alter an output re-records the corpus, and CHANGES.md
names every output that moved::

    PYTHONPATH=src python tests/test_golden.py --record
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from ecc import DgpConfig, generate_paired, invert_oracle, power_transform, write_curve_file
from ecc.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"

_EXPERIMENT = "rho_xy = 0.3, 0.7\nalpha = 3\nn = 300\nj = 20\nreps = 12\nseed = 5\nk_method = {}\n"

COMMANDS = {
    "estimate_mindist": ["estimate", "--x", "base_x.csv", "--y", "base_y.csv"],
    "estimate_ks": ["estimate", "--x", "base_x.csv", "--y", "base_y.csv", "--kselect", "ks"],
    "estimate_fixed_k": ["estimate", "--x", "base_x.csv", "--y", "base_y.csv", "--k", "40"],
    "estimate_no_center": ["estimate", "--x", "base_x.csv", "--y", "base_y.csv", "--no-center"],
    "estimate_transform": ["estimate", "--x", "base_x.csv", "--y", "heavy_y.csv"],
    "pairwise_csv": ["pairwise", "--inputs", "base_x.csv", "base_y.csv", "bern_x.csv",
                     "bern_y.csv", "phase_x.csv", "phase_y.csv"],
    "pairwise_json": ["pairwise", "--inputs", "base_x.csv", "heavy_y.csv", "bern_x.csv",
                      "--kselect", "ks", "--output", "pairwise.csv", "--json", "pairwise.json"],
    # mindist over the six pairwise_csv inputs: 12 of 15 pairs fire the transform; pins each pair's fit
    "pairwise_mindist_json": ["pairwise", "--inputs", "base_x.csv", "base_y.csv", "bern_x.csv",
                              "bern_y.csv", "phase_x.csv", "phase_y.csv", "--json", "pairwise.json"],
    "chi": ["chi", "--x", "base_x.csv", "--y", "base_y.csv"],
    "hill": ["hill", "--input", "base_x.csv", "--kmax", "60"],
    "transform": ["transform", "--input", "base_x.csv", "--alpha-source", "3",
                  "--alpha-target", "2", "--output", "transformed.csv"],
    "resample": ["resample", "--input", "base_x.csv", "--J", "10", "--output", "resampled.csv"],
    "experiment_mindist_t1": ["experiment", "--config", "mindist.cfg", "--threads", "1",
                              "--out-json", "experiment.json"],
    "experiment_mindist_t2": ["experiment", "--config", "mindist.cfg", "--threads", "2"],
    "experiment_ks_t1": ["experiment", "--config", "ks.cfg", "--threads", "1"],
    "experiment_ks_t2": ["experiment", "--config", "ks.cfg", "--threads", "2",
                         "--out-csv", "experiment.csv"],
    # base_x.csv with CRLF and with lone CR line ends: the same report as estimate_mindist
    "estimate_crlf": ["estimate", "--x", "base_x_crlf.csv", "--y", "base_y.csv"],
    "estimate_cr": ["estimate", "--x", "base_x_cr.csv", "--y", "base_y.csv"],
    # the base pair rounded to integers, uncentered: r_15 ties r_16, so 16 pairs enter with divisor 15
    "estimate_tied_radii": ["estimate", "--x", "round_x.csv", "--y", "round_y.csv", "--no-center",
                            "--k", "15"],
    "error_parse_exit_2": ["estimate", "--x", "missing.csv", "--y", "base_y.csv"],
    # a CRLF header, then invalid UTF-8 on line 4: the message names the line and the byte
    "error_invalid_utf8_exit_2": ["estimate", "--x", "bad_utf8.csv", "--y", "base_y.csv"],
    "error_domain_exit_3": ["estimate", "--x", "base_x.csv", "--y", "base_y.csv", "--tau", "-1"],
    # recorded after the fixes that made them exit 3 and 2 (both exited 1 before)
    "chi_qgrid_nan_exit_3": ["chi", "--x", "base_x.csv", "--y", "base_y.csv", "--qgrid", "nan:0.9:0.1"],
    "transform_unwritable_exit_2": ["transform", "--input", "base_x.csv", "--alpha-source", "3",
                                    "--alpha-target", "2", "--output", "missing/out.csv"],
}


def _write_inputs(d: Path) -> None:
    rho = invert_oracle(0.6, 3.0)
    pairs = {
        "base": DgpConfig(rho=rho, alpha=3.0, n=300, J=20, seed=11),
        "bern": DgpConfig(rho=0.0, alpha=3.0, n=300, J=20, seed=12, variant="bernoulli"),
        "phase": DgpConfig(rho=rho, alpha=3.0, n=300, J=20, seed=13, variant="phase", delta=0.3),
    }
    for name, cfg in pairs.items():
        x, y = generate_paired(cfg)
        write_curve_file(d / f"{name}_x.csv", x)
        write_curve_file(d / f"{name}_y.csv", y)
        if name == "base":  # a margin two tail-index units heavier: the transform fires
            write_curve_file(d / "heavy_y.csv", power_transform(y, 3.0, 1.0))
            write_curve_file(d / "round_x.csv", np.round(x))
            write_curve_file(d / "round_y.csv", np.round(y))
    text = (d / "base_x.csv").read_bytes()
    (d / "base_x_crlf.csv").write_bytes(text.replace(b"\n", b"\r\n"))
    (d / "base_x_cr.csv").write_bytes(text.replace(b"\n", b"\r"))
    (d / "bad_utf8.csv").write_bytes(b"t1,t2\r\n1,2\r\n3,4\r\n5,\xff6\r\n")
    for rule in ("mindist", "ks"):
        (d / f"{rule}.cfg").write_text(_EXPERIMENT.format(rule))


@contextmanager
def _cwd(d: Path):
    old = os.getcwd()
    os.chdir(d)
    try:
        yield
    finally:
        os.chdir(old)


def _run(argv: list[str], d: Path) -> tuple[int, dict[str, bytes]]:
    """Run one command in ``d``; return its exit code and its outputs by name."""
    out, err = io.StringIO(), io.StringIO()
    before = set(os.listdir(d))
    with _cwd(d), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = sorted(set(os.listdir(d)) - before)
    outputs = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    outputs.update((name, (d / name).read_bytes()) for name in written)
    for name in written:
        (d / name).unlink()  # the next command starts from the inputs alone
    return code, outputs


def _run_all(d: Path) -> dict[str, tuple[int, dict[str, bytes]]]:
    _write_inputs(d)
    return {name: _run(argv, d) for name, argv in COMMANDS.items()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _numbers_close(got: bytes, want: bytes, rel: float = 1e-12) -> bool:
    """Whether two texts agree verbatim outside their numbers, and number by number to ``rel``."""
    if _NUMBER.sub(b"#", got) != _NUMBER.sub(b"#", want):
        return False
    pairs = zip(_NUMBER.findall(got), _NUMBER.findall(want))
    return all(
        (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=rel)
        for a, b in ((float(g), float(w)) for g, w in pairs)
    )


def _recorded_output(name: str, key: str) -> bytes:
    path = GOLDEN / name / key
    return path.read_bytes() if path.exists() else b""


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


def test_manifest_lists_every_command(manifest):
    assert {name: entry["argv"] for name, entry in manifest["commands"].items()} == COMMANDS


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_the_corpus(name, manifest, corpus):
    entry = manifest["commands"][name]
    code, outputs = corpus[name]
    assert code == entry["exit"]
    assert sorted(outputs) == sorted(entry["sha256"])
    for key, data in outputs.items():
        assert _numbers_close(data, _recorded_output(name, key)), f"{name}: {key} differs"
    if np.__version__ == manifest["numpy"]:
        assert {key: _sha256(data) for key, data in outputs.items()} == entry["sha256"]


def test_corpus_covers_both_error_exits_and_the_transform(manifest):
    exits = {entry["exit"] for entry in manifest["commands"].values()}
    assert {0, 2, 3} <= exits
    report = json.loads(_recorded_output("estimate_transform", "stdout"))
    assert report["transformed"] is True
    tied = json.loads(_recorded_output("estimate_tied_radii", "stdout"))
    assert len(tied["exceedance_indices"]) > tied["k"]


def test_number_comparison_tolerance():
    assert _numbers_close(b'{"rho": 0.5, "k": 12}', b'{"rho": 0.50000000000001, "k": 12}')
    assert not _numbers_close(b'{"rho": 0.5, "k": 12}', b'{"rho": 0.5000000001, "k": 12}')
    assert not _numbers_close(b'{"rho": 0.5, "k": 12}', b'{"rho": 0.5, "k": 13}')
    assert not _numbers_close(b"q,chi\n0.5,nan\n", b"q,chib\n0.5,nan\n")
    assert _numbers_close(b"1.5e-3,nan,-inf", b"0.0015,nan,-inf")


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = _run_all(Path(tmp))
    commands = {}
    for name, (code, outputs) in runs.items():
        target = GOLDEN / name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for key, data in outputs.items():
            if data:
                (target / key).write_bytes(data)
        commands[name] = {"argv": COMMANDS[name], "exit": code,
                          "sha256": {key: _sha256(data) for key, data in outputs.items()}}
    doc = {"numpy": np.__version__, "commands": commands}
    MANIFEST.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
