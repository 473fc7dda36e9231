import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ecc import DomainError, chi_curve, generate_shared_score, norms
from ecc.chi import _average_ranks


def test_identical_sequences_give_chi_one():
    rng = np.random.default_rng(1)
    u = rng.random(200)
    series = chi_curve(u, u, [0.5, 0.8, 0.9])
    assert np.allclose(series.chi, 1.0)
    assert np.allclose(series.chibar, 1.0)
    assert np.allclose(series.raw_chibar, 1.0)


def test_hand_rank_example():
    # ranks 1..4 on both margins; q = 0.5 leaves ranks {3, 4} exceeding
    u = np.arange(1.0, 25.0)
    v = np.arange(1.0, 25.0)
    series = chi_curve(u, v, [0.5])
    assert series.chi[0] == 1.0


def test_independent_uniforms_match_population_values():
    rng = np.random.default_rng(7)
    n = 100_000
    u, v = rng.random(n), rng.random(n)
    series = chi_curve(u, v, [0.5, 0.95])
    for q, chi_hat in zip(series.q, series.chi):
        pop = 1.0 - q  # chi(q) under independence
        m_v = n * (1 - q)
        se = np.sqrt(pop * (1 - pop) / m_v)
        assert chi_hat == pytest.approx(pop, abs=3 * se)
    assert np.all(np.abs(series.chibar) < 0.05)


def test_rank_invariance():
    rng = np.random.default_rng(3)
    u = rng.normal(size=500)
    v = rng.normal(size=500) + 0.5 * u
    q = [0.5, 0.7, 0.9]
    a = chi_curve(u, v, q)
    b = chi_curve(np.exp(u), v**3 + 10.0 * v, q)
    assert np.allclose(a.chi, b.chi, equal_nan=True)
    assert np.allclose(a.raw_chibar, b.raw_chibar, equal_nan=True)


def test_chi_range_and_clamping():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = rng.standard_cauchy(80)
        v = rng.standard_cauchy(80)
        series = chi_curve(u, v, [0.3, 0.6, 0.9])
        valid = ~np.isnan(series.chi)
        assert np.all(series.chi[valid] >= 0.0)
        assert np.all(series.chi[valid] <= 1.0)
        cb = series.chibar[~np.isnan(series.chibar)]
        assert np.all(cb >= -1.0) and np.all(cb <= 1.0)


def test_raw_chibar_preserved_when_clamped():
    # u = -v makes joint upper exceedances impossible: raw chibar is exactly -1
    u = np.arange(1.0, 41.0)
    v = -u
    series = chi_curve(u, v, [0.6])
    assert series.raw_chibar[0] == -1.0
    assert series.chibar[0] == -1.0


def test_undefined_entries_flagged_not_raised():
    # constant v: average ranks put every F_v at ~0.5, so q = 0.9 has no
    # v-exceedances and the entry is NaN
    u = np.arange(1.0, 41.0)
    v = np.full(40, 2.0)
    series = chi_curve(u, v, [0.9])
    assert np.isnan(series.chi[0])
    assert np.isnan(series.chibar[0])


def test_confidence_bands_bracket_the_estimate():
    rng = np.random.default_rng(5)
    u = rng.random(1000)
    v = 0.5 * u + 0.5 * rng.random(1000)
    series = chi_curve(u, v, np.arange(0.5, 0.96, 0.05))
    valid = ~np.isnan(series.chi)
    assert np.all(series.chi_lo[valid] <= series.chi[valid])
    assert np.all(series.chi[valid] <= series.chi_hi[valid])
    valid_cb = ~np.isnan(series.raw_chibar) & ~np.isnan(series.chibar_lo)
    assert np.all(series.chibar_lo[valid_cb] <= series.raw_chibar[valid_cb])
    assert np.all(series.raw_chibar[valid_cb] <= series.chibar_hi[valid_cb])


def test_input_validation():
    with pytest.raises(DomainError):
        chi_curve(np.arange(30.0), np.arange(29.0), [0.5])
    with pytest.raises(DomainError):
        chi_curve(np.arange(10.0), np.arange(10.0), [0.5])
    with pytest.raises(DomainError):
        chi_curve(np.arange(30.0), np.arange(30.0), [0.5, 0.4])
    with pytest.raises(DomainError):
        chi_curve(np.arange(30.0), np.arange(30.0), [0.0, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected_naming_the_sequence(bad):
    u = np.arange(30.0)
    for name, args in (("u", (np.where(u == 7, bad, u), u)), ("v", (u, np.where(u == 3, bad, u)))):
        with pytest.raises(DomainError, match=f"^{name} values must be finite"):
            chi_curve(*args, [0.5])


def test_average_ranks_hand_example():
    assert _average_ranks(np.array([3.0, 1.0, 3.0, -0.0, 0.0, 2.0])).tolist() == [5.5, 3.0, 5.5, 1.5, 1.5, 4.0]


@settings(deadline=None)  # the first call imports scipy
@given(arrays(np.float64, st.integers(1, 60), elements=st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0, 1e-300, 7.0])))
def test_average_ranks_match_scipy_rankdata(a):
    stats = pytest.importorskip("scipy.stats")
    assert _average_ranks(a).tobytes() == stats.rankdata(a, method="average").tobytes()


def test_shared_score_norms_have_high_chi():
    x, y = generate_shared_score(n=1000, alpha=3.0, J=50, seed=21)
    series = chi_curve(norms(x), norms(y), [0.95])
    assert series.chi[0] > 0.5


def _matrix_counts(u, v, q):
    """#{F_U > q}, #{F_V > q} and #{both > q} per q from (len(q), n) exceedance matrices."""
    n = len(u)
    fu, fv = _average_ranks(np.asarray(u, float)) / n, _average_ranks(np.asarray(v, float)) / n
    u_exc, v_exc = fu[None, :] > q[:, None], fv[None, :] > q[:, None]
    return u_exc.sum(axis=1), v_exc.sum(axis=1), (u_exc & v_exc).sum(axis=1)


@settings(max_examples=60, deadline=None)
@given(st.integers(20, 80).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.0])),  # heavy ties
    arrays(np.float64, n, elements=st.floats(-5.0, 5.0)),
    st.lists(st.floats(0.001, 0.999), min_size=1, max_size=30, unique=True).map(sorted))))
def test_chi_curve_matches_the_exceedance_matrix_form(data):
    u, v, q = data
    q = np.array(q)
    m_u, m_v, m_joint = _matrix_counts(u, v, q)
    # the same estimator written over the matrix counts: every field bit for bit
    n = len(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.where(m_v > 0, m_joint / np.maximum(m_v, 1), np.nan)
        raw = np.where((m_joint == 0) & (m_u > 0), -1.0, 2.0 * np.log(m_u / n) / np.log(m_joint / n) - 1.0)
    raw = np.where((m_v == 0) | (m_u == 0), np.nan, raw)
    series = chi_curve(u, v, q)
    assert series.chi.tobytes() == np.where(m_v == 0, np.nan, chi).tobytes()
    assert series.raw_chibar.tobytes() == raw.tobytes()


def test_chi_curve_memory_does_not_grow_with_grid_times_sample():
    # the (len(q), n) exceedance matrices took 60.3 MB here
    rng = np.random.default_rng(5)
    u = rng.pareto(3.0, 2000)
    v = u + rng.pareto(3.0, 2000)
    q = np.arange(1, 10_000) / 10_000
    tracemalloc.start()
    try:
        chi_curve(u, v, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
