"""Memory budgets of the curve-file and pipeline paths, measured with tracemalloc.

One input is an n = 1e4, J = 100 sample (8 MB of float64). Each path holds
its parsed arrays plus O(row block) memory: no whole-file text, formatted
copy, or centered or transformed copy of a sample.
"""
from contextlib import contextmanager
import tracemalloc

import numpy as np
import pytest

from ecc import DgpConfig, estimate_pipeline, generate_paired, parse_curve_file, write_curve_file
from ecc.cli import _emit
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


def test_parse_curve_file_peaks_below_two_and_a_half_results(tmp_path, pair):
    path = tmp_path / "x.csv"
    write_curve_file(path, pair[0])
    with traced_peak() as peak:
        sample = parse_curve_file(path)
    assert sample.tobytes() == pair[0].tobytes()
    assert peak[0] <= 2.5 * sample.nbytes


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
