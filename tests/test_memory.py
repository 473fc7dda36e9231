"""Memory budgets of the curve-file, generator and pipeline paths, measured with tracemalloc.

One input is an n = 1e4, J = 100 sample (8 MB of float64). Each path holds
its parsed or generated arrays plus O(row block) memory: no whole-file text,
list of parsed rows, formatted copy, outer-product temporary, or centered or
transformed copy of a sample.
"""
from contextlib import contextmanager
import tracemalloc

import numpy as np
import pytest

from ecc import DgpConfig, estimate_pipeline, generate_paired, parse_curve_file, write_curve_file
from ecc import select_k_mindist
from ecc.cli import _emit, main
from ecc.curveio import format_curves


@pytest.fixture(scope="module")
def pair():
    return generate_paired(DgpConfig(rho=0.5, alpha=3.0, n=10_000, J=100, seed=1))


@contextmanager
def traced_peak():
    """Yield a list that receives the peak traced bytes above those live at entry."""
    peak = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()


def test_parse_curve_file_peaks_below_1_1_results(tmp_path, pair):
    path = tmp_path / "x.csv"
    write_curve_file(path, pair[0])
    with traced_peak() as peak:
        sample = parse_curve_file(path)
    assert sample.tobytes() == pair[0].tobytes()
    assert peak[0] <= 1.1 * sample.nbytes


def test_blank_lines_do_not_inflate_the_parse_buffer(tmp_path):
    # one row of 100 values, then 200 000 blank lines: a buffer of one row per line would be 160 MB
    path = tmp_path / "x.csv"
    row = np.linspace(1.0, 2.0, 100)
    path.write_text(format_curves(row[None]) + "\n" * 200_000)
    with traced_peak() as peak:
        sample = parse_curve_file(path)
    assert sample.tobytes() == row.tobytes()
    assert peak[0] < 5 * path.stat().st_size  # a data row takes at least 199 of its bytes


@pytest.mark.parametrize("variant", ["base", "phase"])
def test_generate_paired_peaks_below_1_1_samples(variant):
    cfg = DgpConfig(rho=0.5, alpha=3.0, n=10_000, J=100, seed=1, variant=variant)
    with traced_peak() as peak:
        x, y = generate_paired(cfg)
    assert peak[0] < 1.1 * (x.nbytes + y.nbytes)


@pytest.mark.parametrize("variant", ["base", "bernoulli:0.5,0.6", "phase:0.3"])
def test_simulate_streams_its_two_samples_below_2_mb(tmp_path, monkeypatch, variant):
    # the samples are 16 MB: the command holds their basis scores (0.5 MB) and one row block
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--alpha", "3", "--J", "100", "--seed", "1", "--variant", variant,
            "--out-x", "x.csv", "--out-y", "y.csv"]
    assert main(argv + ["--n", "5"]) == 0  # a first call loads modules that stay loaded
    with traced_peak() as peak:
        assert main(argv + ["--n", "10000"]) == 0
    assert len((tmp_path / "y.csv").read_text().splitlines()) == 10_000
    assert peak[0] < 2_000_000


def test_select_k_mindist_holds_almost_nothing_once_it_returns():
    radii = np.abs(np.random.default_rng(2).standard_t(3, 40_000))
    select_k_mindist(radii[:2_000])  # a first call loads modules that stay loaded
    with traced_peak():
        base = tracemalloc.get_traced_memory()[0]
        for n in (20_000, 40_000):
            select_k_mindist(radii[:n])
        held = tracemalloc.get_traced_memory()[0] - base
    assert held < 8_000  # log i alone is 48 KB at n = 4e4


def test_emitting_a_pair_peaks_below_one_input_above_the_arrays(tmp_path, monkeypatch, pair):
    monkeypatch.chdir(tmp_path)
    with traced_peak() as peak:
        _emit((pair[0], "x.csv"), (pair[1], "y.csv"))
    with open("y.csv") as fh:
        assert fh.readline() == format_curves(pair[1][:1])
    assert peak[0] < pair[0].nbytes


def test_pipeline_with_the_transform_peaks_below_one_input_above_its_inputs(pair):
    x, y = pair
    y = np.sign(y) * np.abs(y) ** 2  # halves the tail index of y's norms
    with traced_peak() as peak:
        report = estimate_pipeline(x, y)
    assert report.transformed
    assert peak[0] < x.nbytes
