from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from ecc import (
    DegenerateSampleError,
    DomainError,
    GridMismatchError,
    angular_dependence,
    ecc_report,
    estimate_pipeline,
    extremal_correlation,
    extremal_covariance,
    norms,
    order_statistic,
    pair_radii,
    pairwise_matrix,
)
from ecc.curves import inner_products
from ecc.simulate import DgpConfig, draw_paired, invert_oracle

# scalar fixture (J = 1): radii 3, 1, 0.5
X3 = np.array([[3.0], [1.0], [0.5]])
Y3 = np.array([[3.0], [-1.0], [0.5]])


def _naive_reports(x, y, k):
    """Loop re-implementation of all three estimators."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    J = x.shape[1]
    radii = [max(np.sqrt(np.sum(a * a) / J), np.sqrt(np.sum(b * b) / J)) for a, b in zip(x, y)]
    r_k = sorted(radii, reverse=True)[k - 1]
    idx = [i for i, r in enumerate(radii) if r >= r_k]
    ips = [np.sum(x[i] * y[i]) / J for i in idx]
    sigma = sum(ips) / (k * r_k**2)
    sx = sum(np.sum(x[i] ** 2) / J for i in idx)
    sy = sum(np.sum(y[i] ** 2) / J for i in idx)
    rho = sum(ips) / np.sqrt(sx * sy)
    gamma = sum(ip / radii[i] ** 2 for ip, i in zip(ips, idx)) / k
    return sigma, rho, gamma


def test_order_statistic_basic():
    radii = [3.0, 1.0, 0.5]
    assert order_statistic(radii, 1) == 3.0
    assert order_statistic(radii, 2) == 1.0
    assert order_statistic(radii, 3) == 0.5


def test_order_statistic_ties_counted_with_multiplicity():
    assert order_statistic([2.0, 2.0, 2.0], 3) == 2.0


def test_order_statistic_range_errors():
    with pytest.raises(DomainError):
        order_statistic([1.0], 0)
    with pytest.raises(DomainError):
        order_statistic([1.0], 2)


def test_sigma_hand_fixture():
    # R_(2) = 1, exceedances {0, 1}: (9 - 1) / (2 * 1) = 4
    assert extremal_covariance(X3, Y3, 2) == pytest.approx(4.0, abs=1e-12)


def test_sigma_k1():
    assert extremal_covariance(X3, Y3, 1) == pytest.approx(1.0, abs=1e-12)


def test_sigma_symmetric_in_margins():
    assert extremal_covariance(Y3, X3, 2) == extremal_covariance(X3, Y3, 2)


def test_rho_hand_fixture():
    # (9 - 1) / (sqrt(10) * sqrt(10)) = 0.8
    assert extremal_correlation(X3, Y3, 2) == pytest.approx(0.8, abs=1e-12)


def test_rho_perfect_dependence():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 4))
    assert extremal_correlation(x, x, 3) == pytest.approx(1.0, abs=1e-12)
    assert extremal_correlation(x, -x, 3) == pytest.approx(-1.0, abs=1e-12)


def test_gamma_hand_fixtures():
    x = np.array([[3.0], [1.0]])
    y = np.array([[3.0], [-1.0]])
    assert angular_dependence(x, y, 2) == pytest.approx(0.0, abs=1e-12)
    assert angular_dependence(x, y, 1) == pytest.approx(1.0, abs=1e-12)


def test_gamma_identical_margins():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 5))
    for k in (1, 3, 8):
        assert angular_dependence(x, x, k) == pytest.approx(1.0, abs=1e-12)


def test_ties_at_threshold_all_enter_with_divisor_k():
    # radii 2, 2, 1: k = 1 has a tie at R_(1) = 2, both tied pairs enter
    x = np.array([[2.0], [2.0], [1.0]])
    y = np.array([[2.0], [2.0], [1.0]])
    sigma = extremal_covariance(x, y, 1)
    assert sigma == pytest.approx((4.0 + 4.0) / (1 * 4.0), abs=1e-12)
    rep = ecc_report(x, y, 1)
    assert set(rep.exceedance_indices.tolist()) == {0, 1}
    assert rep.k == 1


def test_degenerate_sample_rejected():
    zeros = np.zeros((3, 2))
    with pytest.raises(DegenerateSampleError):
        extremal_covariance(zeros, zeros, 2)
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateSampleError):
        extremal_correlation(x, np.zeros((2, 2)), 1)


def test_report_matches_naive_loops():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = rng.integers(3, 12)
        J = rng.integers(1, 6)
        x = rng.standard_t(2.5, size=(n, J))
        y = rng.standard_t(2.5, size=(n, J))
        k = int(rng.integers(1, n + 1))
        try:
            rep = ecc_report(x, y, k)
        except DegenerateSampleError:
            continue
        sigma, rho, gamma = _naive_reports(x, y, k)
        assert rep.sigma_xy == pytest.approx(sigma, rel=1e-10)
        assert rep.rho_xy == pytest.approx(np.clip(rho, -1, 1), rel=1e-10)
        assert rep.gamma_xy == pytest.approx(gamma, rel=1e-10)


def test_rho_bounded_on_random_samples():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(2, 10))
        J = int(rng.integers(1, 5))
        x = rng.standard_cauchy((n, J))
        y = rng.standard_cauchy((n, J))
        k = int(rng.integers(1, n + 1))
        assert abs(extremal_correlation(x, y, k)) <= 1.0


def test_joint_scale_invariance():
    rng = np.random.default_rng(29)
    x = rng.standard_t(3, size=(20, 6))
    y = rng.standard_t(3, size=(20, 6))
    base = ecc_report(x, y, 5)
    for c in (1e-3, 7.0, 1e4):
        scaled = ecc_report(c * x, c * y, 5)
        assert scaled.sigma_xy == pytest.approx(base.sigma_xy, rel=1e-10)
        assert scaled.rho_xy == pytest.approx(base.rho_xy, rel=1e-10)
        assert scaled.gamma_xy == pytest.approx(base.gamma_xy, rel=1e-10)
        assert np.array_equal(scaled.exceedance_indices, base.exceedance_indices)
        assert scaled.r_k == pytest.approx(c * base.r_k, rel=1e-12)


def test_margin_swap_symmetry():
    rng = np.random.default_rng(31)
    x = rng.standard_t(3, size=(15, 4))
    y = rng.standard_t(3, size=(15, 4))
    a = ecc_report(x, y, 4)
    b = ecc_report(y, x, 4)
    assert a.sigma_xy == b.sigma_xy
    assert a.rho_xy == b.rho_xy
    assert a.gamma_xy == b.gamma_xy


def test_permutation_invariance():
    rng = np.random.default_rng(37)
    x = rng.standard_t(3, size=(12, 3))
    y = rng.standard_t(3, size=(12, 3))
    perm = rng.permutation(12)
    a = ecc_report(x, y, 4)
    b = ecc_report(x[perm], y[perm], 4)
    assert a.sigma_xy == pytest.approx(b.sigma_xy, rel=1e-12)
    assert a.rho_xy == pytest.approx(b.rho_xy, rel=1e-12)
    assert a.gamma_xy == pytest.approx(b.gamma_xy, rel=1e-12)


# --- pipeline -----------------------------------------------------------


def _dgp_sample(seed=0, n=300, alpha=3.0, target=0.7):
    cfg = DgpConfig(rho=invert_oracle(target, alpha), alpha=alpha, n=n, J=50, seed=seed)
    return draw_paired(np.random.default_rng(seed), cfg)


def test_pipeline_identical_margins_give_rho_one():
    x, _ = _dgp_sample(seed=5)
    for method in ("mindist", "ks"):
        rep = estimate_pipeline(x, x, k_method=method)
        assert rep.ecc.rho_xy == pytest.approx(1.0, abs=1e-12)
    rep = estimate_pipeline(x, x, k=17)
    assert rep.ecc.rho_xy == pytest.approx(1.0, abs=1e-12)
    assert rep.ecc.k == 17


def test_pipeline_skips_transform_when_tail_equivalent():
    x, y = _dgp_sample(seed=6)
    rep = estimate_pipeline(x, y, k=30, tau=100.0)
    assert not rep.transformed


def test_pipeline_transforms_when_margins_differ():
    x, y = _dgp_sample(seed=7)
    rep = estimate_pipeline(x, 5.0 * y**3 / (1 + y**2), k=30, tau=0.0)
    # tau = 0 forces the transform branch unless the fits agree exactly
    assert rep.transformed == (abs(rep.tail_x.alpha_hat - rep.tail_y.alpha_hat) > 0.0)


def test_pipeline_records_marginal_fits_and_series():
    x, y = _dgp_sample(seed=8)
    rep = estimate_pipeline(x, y, k_method="mindist")
    assert rep.tail_x.alpha_hat > 0 and rep.tail_y.alpha_hat > 0
    assert rep.hill_x is not None and len(rep.hill_x) == x.shape[0] - 1
    assert rep.centered


def test_pipeline_centering_flag():
    x, y = _dgp_sample(seed=9)
    on = estimate_pipeline(x, y, k=25)
    off = estimate_pipeline(x, y, k=25, do_center=False)
    assert on.centered and not off.centered
    # centered and uncentered radii differ, so the estimates generally do too
    assert on.ecc.r_k != pytest.approx(off.ecc.r_k, rel=1e-12)


def test_pipeline_close_to_oracle_on_synthetic_data():
    x, y = _dgp_sample(seed=10, n=2000, target=0.9)
    rep = estimate_pipeline(x, y, k_method="mindist", do_center=False)
    assert rep.ecc.rho_xy == pytest.approx(0.9, abs=0.25)


def test_pipeline_rejects_bad_options():
    x, y = _dgp_sample(seed=11)
    with pytest.raises(DomainError):
        estimate_pipeline(x, y, k_method="fixed")
    with pytest.raises(DomainError):
        estimate_pipeline(x, y, alpha_target=0.0)
    with pytest.raises(DomainError):
        estimate_pipeline(x, y, k_method="bogus")


# --- pairwise -----------------------------------------------------------


def test_pairwise_matrix_shape_and_diagonal():
    samples = [_dgp_sample(seed=s)[0] for s in (1, 2, 3)]
    m = pairwise_matrix(samples, k=20)
    assert m.shape == (3, 3)
    assert np.allclose(np.diag(m), 1.0)
    assert np.array_equal(m, m.T)
    assert np.all(np.abs(m) <= 1.0)


def test_pairwise_matrix_identical_samples_entry():
    x, _ = _dgp_sample(seed=4)
    m = pairwise_matrix([x, x.copy(), _dgp_sample(seed=12)[0]], k=20)
    assert m[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_pairwise_matrix_reports():
    samples = [_dgp_sample(seed=s)[0] for s in (5, 6)]
    m, reports = pairwise_matrix(samples, k=15, return_reports=True)
    assert set(reports) == {(0, 1)}
    assert reports[(0, 1)].ecc.rho_xy == m[0, 1]


def test_pairwise_matrix_rejects_mismatched_shapes():
    with pytest.raises(GridMismatchError):
        pairwise_matrix([np.zeros((5, 4)), np.zeros((5, 3))])
    with pytest.raises(DomainError):
        pairwise_matrix([np.zeros((5, 4))])


def test_exceedance_indices_consistent_with_radii():
    x, y = _dgp_sample(seed=13, n=100)
    rep = ecc_report(x, y, 10)
    radii = pair_radii(x, y)
    assert np.all(radii[rep.exceedance_indices] >= rep.r_k)
    others = np.setdiff1d(np.arange(100), rep.exceedance_indices)
    assert np.all(radii[others] < rep.r_k)
    assert len(rep.exceedance_indices) >= rep.k


def test_inner_products_used_by_report():
    x, y = _dgp_sample(seed=14, n=50)
    rep = ecc_report(x, y, 8)
    idx = rep.exceedance_indices
    manual = float(np.sum(inner_products(x[idx], y[idx])) / (rep.k * rep.r_k**2))
    assert rep.sigma_xy == pytest.approx(manual, rel=1e-12)
    assert norms(x).shape == (50,)


# --- one paired core ------------------------------------------------------


def _assert_same(a, b, path="report"):
    """Field-for-field equality: floats with ==, arrays with array_equal, dataclasses recursively."""
    if is_dataclass(a):
        assert type(a) is type(b), path
        for f in fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


def _heavier(y):
    # sign(y) y^2 halves the norm tail index, so pairs with it fire the transform
    return np.sign(y) * y**2


@pytest.mark.parametrize(
    "options",
    [{}, {"k_method": "ks"}, {"k": 20}, {"do_center": False}, {"k_method": "ks", "do_center": False}],
)
def test_pairwise_reports_equal_estimate_pipeline(options):
    x, y = _dgp_sample(seed=15, n=250)
    samples = [x, y, _heavier(y), _dgp_sample(seed=16, n=250)[0]]
    matrix, reports = pairwise_matrix(samples, return_reports=True, **options)
    assert set(reports) == {(a, b) for a in range(4) for b in range(a + 1, 4)}
    assert any(rep.transformed for rep in reports.values())
    for (a, b), rep in reports.items():
        _assert_same(rep, estimate_pipeline(samples[a], samples[b], **options))
        assert matrix[a, b] == matrix[b, a] == rep.ecc.rho_xy


def _layouts(a):
    """The same values as a C-ordered copy, a Fortran-ordered copy and two strided views."""
    cols = np.zeros((a.shape[0], 2 * a.shape[1]))
    cols[:, ::2] = a
    rows = np.zeros((2 * a.shape[0], a.shape[1]))
    rows[::2] = a
    return [np.ascontiguousarray(a), np.asfortranarray(a), cols[:, ::2], rows[::2]]


def test_results_do_not_depend_on_memory_layout():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(3.0, size=(500, 37))
        y = 0.6 * x + rng.standard_t(3.0, size=(500, 37))
        pairs = list(zip(_layouts(x), _layouts(y)))
        for xv, yv in pairs[1:]:
            assert not (xv.flags.c_contiguous and yv.flags.c_contiguous)
        base_x, base_y = pairs[0]
        for xv, yv in pairs[1:]:
            _assert_same(ecc_report(xv, yv, 40), ecc_report(base_x, base_y, 40))
            for f in (extremal_covariance, extremal_correlation, angular_dependence):
                assert f(xv, yv, 40) == f(base_x, base_y, 40)
            for options in ({}, {"do_center": False}):
                _assert_same(
                    estimate_pipeline(xv, yv, **options), estimate_pipeline(base_x, base_y, **options)
                )


def test_covariance_and_angular_survive_a_vanishing_rho_denominator():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    y = np.zeros((2, 2))
    assert extremal_covariance(x, y, 1) == 0.0
    assert angular_dependence(x, y, 1) == 0.0
    with pytest.raises(DegenerateSampleError):
        ecc_report(x, y, 1)


def test_marginal_errors_name_the_margin():
    x, _ = _dgp_sample(seed=17)
    with pytest.raises(DomainError, match=r"^y: the top \d+ values must be strictly positive"):
        estimate_pipeline(x, np.zeros_like(x))
    with pytest.raises(DomainError, match=r"^x: sample values must be finite"):
        estimate_pipeline(np.full_like(x, np.nan), x)
    with pytest.raises(DomainError, match=r"^sample 2: the top \d+ values"):
        pairwise_matrix([x, 2.0 * x, np.zeros_like(x)])
    with pytest.raises(GridMismatchError):
        estimate_pipeline(x, x[:, :-1])
