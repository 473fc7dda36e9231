import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecc import (
    DegenerateTailError,
    DgpConfig,
    DomainError,
    EccError,
    TailFit,
    draw_paired,
    hill,
    hill_series,
    invert_oracle,
    pair_radii,
    select_k,
    select_k_ks,
    select_k_mindist,
)
from ecc import tail
from ecc.tail import _mindist_rows, _prune_argmin
from reference import SHAPES, full_scan_ks, full_scan_mindist, full_scan_mindist_distances, tail_sample


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


@pytest.mark.parametrize("values,positive", [([5.0, 0, 0, 0], 1), ([5.0, 3, 0, 0], 2), ([0.0, -1, -2], 0)])
def test_hill_series_default_k_max_needs_three_positive_values(values, positive):
    # the default k_max is the positive count minus 1: too few positives name the count, not a k_max
    with pytest.raises(DomainError, match=f"^need at least 3 positive values, got {positive}$"):
        hill_series(np.array(values))
    with pytest.raises(DomainError, match=r"^k_max=2 out of range \[2, 1\]$"):
        hill_series(np.array(values[:2]), 2)  # a given k_max keeps its own message


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
        (k,), (dist,), _ = _mindist_rows(np.sort(v)[::-1][None, :])
        fit = select_k_mindist(v)
        bk, bd = _brute_force_mindist(v)
        assert fit.k == k == bk
        assert dist == pytest.approx(bd, rel=1e-10)


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


@pytest.mark.parametrize("values, k", [
    (np.r_[1e300, 1e299, 1e298, np.linspace(1e-10, 1e-9, 50)], 3),  # V_(1) / V_(k+1) overflows
    (np.r_[1.0, 0.5, 5e-324, 5e-324], 2),  # a subnormal threshold
])
def test_hill_with_an_overflowing_ratio_matches_its_series_without_warning(values, k):
    fit = hill(values, k)  # the suite turns a RuntimeWarning into an error
    assert fit.alpha_hat > 0.0
    assert fit.alpha_hat == pytest.approx(hill_series(values, k).alpha_hat[k - 1], rel=1e-12, abs=0)


# --- select_k -------------------------------------------------------------


def test_select_k_dispatches_to_each_rule():
    v = (1 - np.random.default_rng(12).random(300)) ** (-1 / 3.0)
    assert select_k(v, "fixed", 25) == hill(v, 25)
    assert select_k(v, "mindist") == select_k_mindist(v)
    assert select_k(v, "ks") == select_k_ks(v)


@pytest.mark.parametrize("method", ["mindist", "ks"])
def test_select_k_with_a_given_k_fixes_k_whatever_the_method(method):
    v = (1 - np.random.default_rng(12).random(300)) ** (-1 / 3.0)
    assert select_k(v, method, 25) == hill(v, 25)


def test_select_k_rejects_unknown_method_and_fixed_without_k():
    v = (1 - np.random.default_rng(13).random(100)) ** (-1 / 3.0)
    with pytest.raises(DomainError, match="unknown k_method"):
        select_k(v, "bogus")
    with pytest.raises(DomainError, match="unknown k_method"):
        select_k(v, "bogus", 10)
    with pytest.raises(DomainError, match="requires k"):
        select_k(v, "fixed")


# --- pruned searches against the full scans ---------------------------------

def _assert_same_outcome(rule, reference, values):
    """The rule returns the reference's TailFit, or raises its error with its message."""
    try:
        expected = reference(values)
    except EccError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            rule(values)
        return
    assert rule(values) == expected


tail_samples = st.builds(
    tail_sample,
    st.sampled_from(SHAPES),
    st.integers(20, 400),
    st.floats(0.5, 5.0),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2),
)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1, max_size=40))
def test_prune_argmin_is_the_first_argmin(cells):
    # few distinct distances, so exact ties are common; bounds equal distances or undercut them
    dist = np.array([d for d, _ in cells], dtype=float)
    bounds = dist - np.array([g for _, g in cells])
    seen = []

    def distance(i):
        seen.append(i)
        return float(dist[i])

    assert _prune_argmin(bounds, distance) == (int(np.argmin(dist)), float(dist.min()))
    assert len(seen) == len(set(seen))


def _checked_prune(bounds, distance):
    """_prune_argmin that first checks its contract against every candidate's distance."""
    full = np.array([distance(i) for i in range(bounds.size)])
    assert np.all(bounds <= full)
    got = _prune_argmin(bounds, distance)
    assert got == (int(np.argmin(full)), float(full.min()))
    return got


@settings(max_examples=60, deadline=None)
@given(tail_samples)
def test_rule_bounds_never_exceed_their_distances(values):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tail, "_prune_argmin", _checked_prune)
        for rule in (select_k_mindist, select_k_ks):
            try:
                rule(values)
            except EccError:
                pass


@settings(max_examples=150, deadline=None)
@given(tail_samples)
def test_mindist_matches_full_scan(values):
    _assert_same_outcome(select_k_mindist, full_scan_mindist, values)


@settings(max_examples=150, deadline=None)
@given(tail_samples)
# np.log of a reversed view of the positive values would shift alpha_hat by one ulp here
@example(tail_sample("pareto", 20, 4.345309203548877, 0, 0))
def test_ks_matches_full_scan(values):
    _assert_same_outcome(select_k_ks, full_scan_ks, values)


def _counting_prune(evaluated):
    """_checked_prune that records, per call, how many candidates the search itself evaluates."""
    def prune(bounds, distance):
        seen = []
        got = _checked_prune(bounds, lambda i: seen.append(i) or distance(i))
        evaluated.append(len(seen) - bounds.size)  # the contract check evaluates each candidate once
        return got
    return prune


def _assert_rows_match_full_scan(rows):
    """_mindist_rows on the rows (one n) gives each row the full scan's k and distance, under bounds <= distances."""
    vs = np.sort(rows, axis=1)[:, ::-1]
    outcomes = []
    for row in rows:
        try:
            outcomes.append(full_scan_mindist_distances(row))
        except EccError as exc:
            outcomes.append(exc)
    errors = [o for o in outcomes if isinstance(o, DomainError)]
    if errors:  # a domain error in any row fails the batch with the first one's message
        with pytest.raises(DomainError, match=f"^{re.escape(str(errors[0]))}$"):
            _mindist_rows(vs)
        return
    ks, dists, bounds = _mindist_rows(vs)
    for k, dist, bound, outcome in zip(ks, dists, bounds, outcomes):
        if isinstance(outcome, DegenerateTailError):
            assert k == 0
            continue
        cand, full = outcome
        assert np.all(bound <= full)
        assert (k, dist) == (cand[np.argmin(full)], full.min())


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(20, 2000), st.sampled_from([1, 2, 7])).flatmap(lambda n_rows: st.lists(
    st.builds(tail_sample, st.sampled_from(SHAPES), st.just(n_rows[0]), st.floats(0.5, 5.0),
              st.integers(0, 2**32 - 1), st.integers(0, 2)),
    min_size=n_rows[1], max_size=n_rows[1])))
def test_mindist_rows_match_full_scan(rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tail, "_prune_argmin", _checked_prune)
        _assert_rows_match_full_scan(np.array(rows))


def test_hill_log_sums_of_a_block_equal_each_rows_own():
    # np.log of a 2-d reversed view runs another loop than of a 1-d one and differs in some last ulps
    rng = np.random.default_rng(3)
    vs = np.sort((1 - rng.random((7, 2000))) ** (-1 / 3.0), axis=1)[:, ::-1]
    logs, _, log_sums = tail._hill_log_sums(vs, 300)
    for v, row_logs, row_sums in zip(vs, logs, log_sums):
        own = np.log(np.sort(v)[::-1][:301])
        assert row_logs.tobytes() == own.tobytes()
        assert row_sums.tobytes() == (np.cumsum(own[:-1]) - np.arange(1, 301) * own[1:]).tobytes()


def test_mindist_rows_search_past_the_minimum_bound_and_stay_exact():
    # flat bodies hide the jump from the probes, and DGP radii sometimes undercut the best
    # candidate: both leave rows whose minimum-bound candidate does not end the search
    cfg = DgpConfig(rho=invert_oracle(0.7, 3.0), alpha=3.0, n=2000, J=20)
    dgp = [pair_radii(*draw_paired(np.random.default_rng(s), cfg)) for s in np.random.SeedSequence(8).spawn(8)]
    hard = [tail_sample("flat", 2000, 1.5, 0), tail_sample("flat", 2000, 3.0, 0),
            tail_sample("rounded", 2000, 3.0, 13), tail_sample("pareto", 2000, 1.5, 1)]
    evaluated = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tail, "_prune_argmin", _counting_prune(evaluated))
        _assert_rows_match_full_scan(np.array(dgp + hard))
    assert len(evaluated) == len(dgp) + len(hard) and min(evaluated) == 1
    assert len(hard) <= sum(e > 1 for e in evaluated) < len(evaluated)


def _reference_hill_series(values, k_max):
    """(k, alpha_hat, ci_low, ci_high) by the log-sum formula, or None where a log-sum is not positive."""
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    logs = np.log(v[: k_max + 1])
    ks = np.arange(1, k_max + 1)
    log_sums = np.cumsum(logs[:-1]) - ks * logs[1:]
    if np.any(log_sums <= 0.0):
        return None
    alpha = ks / log_sums
    half_width = 1.96 * alpha / np.sqrt(ks)
    return ks, alpha, alpha - half_width, alpha + half_width


@settings(max_examples=100, deadline=None)
@given(tail_samples, st.floats(0.0, 1.0))
def test_hill_series_matches_reference_bit_for_bit(values, frac):
    k_max = 2 + int(frac * (values.size - 3))
    expected = _reference_hill_series(values, k_max)
    if expected is None:
        with pytest.raises(DegenerateTailError):
            hill_series(values, k_max)
        return
    got = hill_series(values, k_max)
    for a, b in zip((got.k, got.alpha_hat, got.ci_low, got.ci_high), expected):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", SHAPES)
def test_mindist_matches_full_scan_at_n_20000(shape):
    _assert_same_outcome(select_k_mindist, full_scan_mindist, tail_sample(shape, 20_000, 3.0, 5))


@pytest.mark.parametrize("shape,n", [("rounded", 20_000), ("flat", 20_000), ("ties", 20_000),
                                     ("quantiles", 4_000), ("pareto", 4_000)])
def test_ks_matches_full_scan_at_large_n(shape, n):
    _assert_same_outcome(select_k_ks, full_scan_ks, tail_sample(shape, n, 3.0, 5))


def test_rules_match_full_scan_on_dgp_radii():
    for s in np.random.SeedSequence(77).spawn(3):
        cfg = DgpConfig(rho=invert_oracle(0.5, 3.0), alpha=3.0, n=2000, J=20)
        radii = pair_radii(*draw_paired(np.random.default_rng(s), cfg))
        assert select_k_mindist(radii) == full_scan_mindist(radii)
        assert select_k_ks(radii) == full_scan_ks(radii)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rules_reject_non_finite_values(bad):
    v = (1 - np.random.default_rng(3).random(100)) ** (-1 / 3.0)
    v[7] = bad
    for rule in (select_k_mindist, select_k_ks, lambda x: hill(x, 10), lambda x: hill_series(x, 10)):
        with pytest.raises(DomainError, match="values must be finite"):
            rule(v)
