import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecc import (
    DegenerateTailError,
    DgpConfig,
    DomainError,
    draw_paired,
    hill,
    hill_series,
    invert_oracle,
    pair_radii,
    select_k,
    select_k_ks,
    select_k_mindist,
)
from ecc.tail import mindist_distances


# --- hill ---------------------------------------------------------------


def test_hill_powers_of_two():
    fit = hill([8.0, 4.0, 2.0, 1.0], k=3)
    assert fit.alpha_hat == pytest.approx(1.0 / (2.0 * math.log(2.0)), abs=1e-12)
    assert fit.threshold == 1.0
    assert fit.k == 3


def test_hill_exponential_ladder():
    values = [math.e**3, math.e**2, math.e, 1.0]
    assert hill(values, 3).alpha_hat == pytest.approx(0.5, abs=1e-12)


def test_hill_scale_invariant():
    a = hill([8.0, 4.0, 2.0, 1.0], 3).alpha_hat
    b = hill([80.0, 40.0, 20.0, 10.0], 3).alpha_hat
    assert a == pytest.approx(b, abs=1e-14)


def test_hill_geometric_closed_form():
    # data r^k, ..., r, 1 gives alpha_hat = 2 / ((k+1) ln r)
    for r in (1.5, 2.0, 5.0):
        for k in (1, 3, 7):
            values = [r**p for p in range(k, -1, -1)]
            expected = 2.0 / ((k + 1) * math.log(r))
            assert hill(values, k).alpha_hat == pytest.approx(expected, rel=1e-12)


def test_hill_k_out_of_range():
    with pytest.raises(DomainError):
        hill([3.0, 2.0, 1.0], 0)
    with pytest.raises(DomainError):
        hill([3.0, 2.0, 1.0], 3)


def test_hill_nonpositive_values_rejected():
    with pytest.raises(DomainError):
        hill([3.0, 2.0, 0.0], 2)
    with pytest.raises(DomainError):
        hill([3.0, -1.0, 0.5], 2)


def test_hill_degenerate_tail():
    with pytest.raises(DegenerateTailError):
        hill([2.0, 2.0, 2.0, 1.0], 2)


def test_hill_order_insensitive():
    rng = np.random.default_rng(0)
    v = (1 - rng.random(50)) ** (-1 / 2.5)
    shuffled = v.copy()
    rng.shuffle(shuffled)
    assert hill(v, 10).alpha_hat == hill(shuffled, 10).alpha_hat


@given(st.floats(min_value=0.1, max_value=1e6), st.integers(min_value=1, max_value=30))
def test_hill_scale_invariance_property(c, k):
    rng = np.random.default_rng(k)
    v = (1 - rng.random(64)) ** (-1 / 3.0)
    assert hill(c * v, k).alpha_hat == pytest.approx(hill(v, k).alpha_hat, rel=1e-9)


def test_hill_converges_on_exact_pareto():
    # k = n/10 at n = 1e5: |alpha_hat - alpha| <= 0.1 across seeds
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        v = (1 - rng.random(100_000)) ** (-1 / 3.0)
        assert abs(hill(v, 10_000).alpha_hat - 3.0) <= 0.1


# --- hill_series --------------------------------------------------------


def test_hill_series_shape_and_last_entry():
    values = [math.e**3, math.e**2, math.e, 1.0]
    series = hill_series(values, 3)
    assert len(series) == 3
    assert list(series.k) == [1, 2, 3]
    assert series.alpha_hat[2] == pytest.approx(0.5, abs=1e-12)
    for k in (1, 2, 3):
        assert series.alpha_hat[k - 1] == pytest.approx(hill(values, k).alpha_hat, abs=1e-12)


def test_hill_series_scale_invariant():
    rng = np.random.default_rng(8)
    v = (1 - rng.random(60)) ** (-1 / 3.0)
    a = hill_series(v, 30).alpha_hat
    b = hill_series(10.0 * v, 30).alpha_hat
    assert np.allclose(a, b, rtol=1e-12)


def test_hill_series_confidence_band_orders():
    rng = np.random.default_rng(9)
    v = (1 - rng.random(60)) ** (-1 / 3.0)
    s = hill_series(v, 30)
    assert np.all(s.ci_low <= s.alpha_hat)
    assert np.all(s.alpha_hat <= s.ci_high)
    assert np.allclose(s.ci_high - s.alpha_hat, 1.96 * s.alpha_hat / np.sqrt(s.k))


def test_hill_series_k_max_out_of_range():
    with pytest.raises(DomainError):
        hill_series([3.0, 2.0, 1.0], 1)
    with pytest.raises(DomainError):
        hill_series([3.0, 2.0, 1.0], 3)


# --- select_k_mindist ---------------------------------------------------


def _brute_force_mindist(values, k_min=2, k_max=None):
    """Independent re-implementation of the distance scan with plain loops."""
    v = np.sort(np.asarray(values, float))[::-1]
    n = v.size
    if k_max is None:
        k_max = min(max(3, int(0.15 * n)), n - 1)
    best_k, best_d = None, np.inf
    for k in range(k_min, k_max + 1):
        gamma = np.mean(np.log(v[:k])) - np.log(v[k])
        d = 0.0
        for i in range(1, k_max + 1):
            fitted = v[k] * (k / i) ** gamma
            d = max(d, abs(np.log(v[i - 1]) - np.log(fitted)))
        if d < best_d:
            best_d, best_k = d, k
    return best_k, best_d


def test_mindist_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(5):
        v = (1 - rng.random(80)) ** (-1 / 2.2) * (1 + 0.1 * rng.random(80))
        ks, dists = mindist_distances(v)
        fit = select_k_mindist(v)
        bk, bd = _brute_force_mindist(v)
        assert fit.k == bk
        assert dists[list(ks).index(bk)] == pytest.approx(bd, rel=1e-10)


def test_mindist_recovers_constructed_pareto_block():
    # top-of-sample tail following one exact Pareto quantile curve, glued onto
    # a flat body; the expected k comes from the brute-force oracle
    n, k_star = 200, 20
    body = np.full(n - k_star - 1, 0.95)
    tail = 1.0 * (k_star / np.arange(1, k_star + 1)) ** (1 / 2.0)
    values = np.concatenate([tail, [1.0], body])
    oracle_k, _ = _brute_force_mindist(values)
    fit = select_k_mindist(values)
    assert fit.k == oracle_k
    assert fit.method == "mindist"
    assert fit.threshold > 0


def test_mindist_deterministic():
    rng = np.random.default_rng(4)
    v = (1 - rng.random(300)) ** (-1 / 3.0)
    a = select_k_mindist(v)
    b = select_k_mindist(v)
    assert (a.k, a.alpha_hat, a.threshold) == (b.k, b.alpha_hat, b.threshold)


def test_mindist_k_within_candidate_range():
    rng = np.random.default_rng(14)
    for _ in range(10):
        v = (1 - rng.random(150)) ** (-1 / 2.0)
        fit = select_k_mindist(v)
        assert 2 <= fit.k <= max(3, int(0.15 * 150))


def test_mindist_small_sample_rejected():
    with pytest.raises(DomainError):
        select_k_mindist(np.arange(1.0, 11.0))


def test_mindist_bad_range_rejected():
    v = np.arange(1.0, 41.0)
    with pytest.raises(DomainError):
        select_k_mindist(v, k_min=10, k_max=5)


def test_mindist_average_k_on_dgp_radii():
    # reported average around 26 at n=500 for tail index 3 (tolerance +-40%)
    ks = []
    for s in np.random.SeedSequence(515).spawn(200):
        rng = np.random.default_rng(s)
        cfg = DgpConfig(rho=invert_oracle(0.5, 3.0), alpha=3.0, n=500, J=100)
        x, y = draw_paired(rng, cfg)
        ks.append(select_k_mindist(pair_radii(x, y)).k)
    assert 15.6 <= np.mean(ks) <= 36.4


def test_mindist_average_k_on_pareto_radii():
    ks = []
    for s in np.random.SeedSequence(2024).spawn(200):
        rng = np.random.default_rng(s)
        v = (1 - rng.random(500)) ** (-1 / 3.0)
        ks.append(select_k_mindist(v).k)
    assert 15.6 <= np.mean(ks) <= 36.4


# --- select_k_ks --------------------------------------------------------


def _brute_force_ks(values, min_exceedances=10):
    """Naive threshold scan for the power-law KS rule."""
    v = np.sort(np.asarray(values, float))
    best = (np.inf, None, None, None)
    for x_min in np.unique(v[v > 0]):
        exc = np.sort(v[v >= x_min])
        m = exc.size
        if m < min_exceedances:
            continue
        log_sum = float(np.sum(np.log(exc / x_min)))
        if log_sum <= 0:
            continue
        a_hat = 1.0 + m / log_sum
        d = 0.0
        for i, w in enumerate(exc, start=1):
            f = 1.0 - (x_min / w) ** (a_hat - 1.0)
            d = max(d, abs(i / m - f), abs((i - 1) / m - f))
        if d < best[0]:
            best = (d, x_min, m, a_hat - 1.0)
    return best


def test_ks_matches_brute_force():
    rng = np.random.default_rng(31)
    v = (1 - rng.random(60)) ** (-1 / 2.5)
    fit = select_k_ks(v)
    d, x_min, m, alpha = _brute_force_ks(v)
    assert fit.threshold == pytest.approx(x_min)
    assert fit.k == m
    assert fit.alpha_hat == pytest.approx(alpha, rel=1e-10)


def test_ks_global_pareto_picks_deep_threshold():
    # exact Pareto quantile ladder: the power law holds globally, so the
    # winning threshold sits in the bottom decile of the sample
    n = 100
    v = (np.arange(1, n + 1) / n) ** (-1 / 3.0)
    fit = select_k_ks(v)
    assert fit.threshold <= np.quantile(v, 0.10)
    assert fit.k >= n * 0.9


def test_ks_all_equal_is_degenerate():
    with pytest.raises(DegenerateTailError):
        select_k_ks(np.full(50, 3.0))


def test_ks_too_small_rejected():
    with pytest.raises(DomainError):
        select_k_ks(np.arange(1.0, 11.0))


def test_ks_rejects_min_exceedances_below_one():
    v = (1 - np.random.default_rng(8).random(100)) ** (-1 / 3.0)
    for bad in (0, -3):
        with pytest.raises(DomainError, match="min_exceedances"):
            select_k_ks(v, min_exceedances=bad)
    assert select_k_ks(v, min_exceedances=1).k >= 1


def test_ks_deterministic():
    rng = np.random.default_rng(6)
    v = (1 - rng.random(200)) ** (-1 / 3.0)
    assert select_k_ks(v) == select_k_ks(v)


def test_ks_average_k_on_dgp_radii():
    # reported average around 273 at n=500 for tail index 3 (tolerance +-40%)
    ks = []
    for s in np.random.SeedSequence(99).spawn(150):
        rng = np.random.default_rng(s)
        cfg = DgpConfig(rho=invert_oracle(0.5, 3.0), alpha=3.0, n=500, J=100)
        x, y = draw_paired(rng, cfg)
        ks.append(select_k_ks(pair_radii(x, y)).k)
    assert 163.8 <= np.mean(ks) <= 382.2


# --- select_k -------------------------------------------------------------


def test_select_k_dispatches_to_each_rule():
    v = (1 - np.random.default_rng(12).random(300)) ** (-1 / 3.0)
    assert select_k(v, "fixed", 25) == hill(v, 25)
    assert select_k(v, "mindist") == select_k_mindist(v)
    assert select_k(v, "ks") == select_k_ks(v)


def test_select_k_rejects_unknown_method_and_fixed_without_k():
    v = (1 - np.random.default_rng(13).random(100)) ** (-1 / 3.0)
    with pytest.raises(DomainError, match="unknown k_method"):
        select_k(v, "bogus")
    with pytest.raises(DomainError, match="unknown k_method"):
        select_k(v, "bogus", 10)
    with pytest.raises(DomainError, match="requires k"):
        select_k(v, "fixed")
