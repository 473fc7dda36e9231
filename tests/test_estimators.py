import warnings
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecc import (
    DegenerateSampleError,
    DegenerateTailError,
    DomainError,
    EccError,
    GridMismatchError,
    PipelineReport,
    angular_dependence,
    ecc_report,
    estimate_pipeline,
    extremal_correlation,
    extremal_covariance,
    hill,
    hill_series,
    norms,
    order_statistic,
    pair_radii,
    pairwise_matrix,
    power_transform,
    select_k,
)
from ecc import estimators
from ecc.curves import inner_products
from ecc.simulate import DgpConfig, draw_paired, generate_paired, invert_oracle
from reference import naive_reports

# scalar fixture (J = 1): radii 3, 1, 0.5
X3 = np.array([[3.0], [1.0], [0.5]])
Y3 = np.array([[3.0], [-1.0], [0.5]])


def test_order_statistic_basic():
    radii = [3.0, 1.0, 0.5]
    assert order_statistic(radii, 1) == 3.0
    assert order_statistic(radii, 2) == 1.0
    assert order_statistic(radii, 3) == 0.5


def test_order_statistic_ties_counted_with_multiplicity():
    assert order_statistic([2.0, 2.0, 2.0], 3) == 2.0


@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -3.0, 1e300]), min_size=1, max_size=30), st.data())
def test_order_statistic_matches_sorted_reference(values, data):
    k = data.draw(st.integers(1, len(values)))
    assert order_statistic(values, k) == sorted(values, reverse=True)[k - 1]


def test_order_statistic_range_errors():
    with pytest.raises(DomainError):
        order_statistic([1.0], 0)
    with pytest.raises(DomainError):
        order_statistic([1.0], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_order_statistic_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match="^values must be finite$"):
        order_statistic([bad, 1.0, 2.0], 1)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda v, x, y, k: hill(v, k), "k", id="hill"),
    pytest.param(lambda v, x, y, k: hill_series(v, k), "k_max", id="hill_series"),
    pytest.param(lambda v, x, y, k: select_k(v, "fixed", k), "k", id="select_k"),
    pytest.param(lambda v, x, y, k: order_statistic(v, k), "k", id="order_statistic"),
    pytest.param(lambda v, x, y, k: estimate_pipeline(x, y, k=k), "k", id="estimate_pipeline"),
    pytest.param(lambda v, x, y, k: ecc_report(x, y, k), "k", id="ecc_report"),
])
def test_k_must_be_an_integer_and_numpy_integers_are_accepted(call, name):
    x, y = _dgp_sample(seed=4)
    v = norms(x)
    for bad in (2.5, np.float64(20.0), "20"):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
            call(v, x, y, bad)
    got = call(v, x, y, np.int32(20))
    _assert_same(got, call(v, x, y, 20))
    got = getattr(got, "ecc", got)  # a pipeline's k is its EccReport's
    if hasattr(got, "k") and np.ndim(got.k) == 0:  # a given k is stored as an int
        assert type(got.k) is int


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
        sigma, rho, gamma = naive_reports(x, y, k)
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


def test_pipeline_transform_holds_no_sample_copy_through_radius_fit(monkeypatch):
    # the radius fit sets the pipeline's peak memory, so what is held then must not depend
    # on whether the transform fires: the transformed samples are never kept whole
    import tracemalloc

    from ecc import estimators

    rng = np.random.default_rng(5)
    n, J = 2000, 200
    x = rng.standard_normal((n, J)) * (rng.pareto(2.0, n)[:, None] + 1.0)
    y = rng.standard_normal((n, J)) * (rng.pareto(5.0, n)[:, None] + 1.0)
    held = []
    radius_rows = estimators._radius_rows

    def recording(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return radius_rows(*args)

    monkeypatch.setattr(estimators, "_radius_rows", recording)
    tracemalloc.start()
    try:
        start_fired = tracemalloc.get_traced_memory()[0]
        fired = estimate_pipeline(x, y, tau=0.0)
        start_plain = tracemalloc.get_traced_memory()[0]
        plain = estimate_pipeline(x, y, tau=1e9)
    finally:
        tracemalloc.stop()
    assert fired.transformed and not plain.transformed
    assert len(held) == 2  # one radius stage per run
    # growth from the start of a run to its radius fit; two transformed copies would add 2 * x.nbytes
    assert (held[0] - start_fired) - (held[1] - start_plain) < x.nbytes / 4


def test_pipeline_rejects_an_unknown_k_method_even_with_k_given():
    x, y = _dgp_sample(seed=3)
    with pytest.raises(DomainError, match="^unknown k_method 'bogus'$"):
        estimate_pipeline(x, y, k=10, k_method="bogus")


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
        estimate_pipeline(x, y, k_method="bogus")


@pytest.mark.parametrize("option", [{"alpha_target": 0.0}, {"alpha_target": np.nan}, {"alpha_target": np.inf},
                                    {"alpha_target": -np.inf}, {"tau": -1.0}, {"tau": np.nan}])
def test_pipeline_rejects_bad_alpha_target_and_tau(option):
    x, y = _dgp_sample(seed=11)
    (name,) = option
    with pytest.raises(DomainError, match=f"^{name} must be"):
        estimate_pipeline(x, y, **option)


def test_pipeline_infinite_tau_never_transforms():
    x, y = _dgp_sample(seed=11)
    y = np.sign(y) * np.abs(y) ** 2  # halves the tail index of y's norms
    assert estimate_pipeline(x, y, tau=0.0).transformed
    assert not estimate_pipeline(x, y, tau=np.inf).transformed


def test_pipeline_overflowing_norms_raise_a_named_error_without_warning():
    x, y = _dgp_sample(seed=12, n=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^x: curve norms overflow$"):
            estimate_pipeline(x * (1e160 / np.abs(x).max()), y)
        with pytest.raises(DomainError, match="^sample 1: curve norms overflow$"):
            pairwise_matrix([x, y * 1e160, y])


def test_pipeline_overflowing_transform_names_the_margin_without_warning():
    # tau = 0 with a tiny alpha_target raises each curve's norm to a huge power
    x, y = draw_paired(np.random.default_rng(1), DgpConfig(rho=0.5, alpha=3.0, n=300, J=20, seed=1))
    heavy = y * np.abs(y) ** 0.5
    big = x * (1e150 / norms(x).max())
    alpha_big = estimate_pipeline(big, y, tau=np.inf).tail_x.alpha_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^x: power transform factors overflow$"):
            estimate_pipeline(x, heavy, alpha_target=0.01, tau=0.0)
        with pytest.raises(DomainError, match="^y: curve norms overflow$"):
            estimate_pipeline(x * 1e-3, heavy, alpha_target=0.01, tau=0.0)
        with pytest.raises(DomainError, match="^sample 2: curve norms overflow$"):
            pairwise_matrix([x * 1e-3, x * 2e-3, heavy], alpha_target=0.01, tau=0.0)
        # finite factors (norm^1.5) whose products with the curve values overflow
        with pytest.raises(DomainError, match="^x: transformed curves overflow$"):
            estimate_pipeline(big, y, alpha_target=alpha_big / 2.5, tau=0.0)


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
    with pytest.raises(DomainError, match="^sample 1: a functional sample must be a non-empty 2-d array"):
        pairwise_matrix([np.zeros((5, 4)), np.zeros(5)])


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


def test_pair_stage_errors_name_the_pair():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(400, 10)) * (rng.pareto(3, (400, 1)) + 1) for _ in range(3))
    c[np.argsort(norms(b))[-100:]] = 0.0  # c vanishes wherever b's radii lead
    c *= 1e-6
    message = "a margin is identically zero on the exceedance set$"
    with pytest.raises(DegenerateSampleError, match=f"^sample 1 and sample 2: {message}"):
        pairwise_matrix([a, b, c], do_center=False, k=20)
    with pytest.raises(DegenerateSampleError, match=f"^x and y: {message}"):
        estimate_pipeline(b, c, do_center=False, k=20)


# --- the radius stage -----------------------------------------------------


def _radius_stage_rows():
    """Norms and inner products of 8 rows (n = 300): four DGP pairs, one with a tied top, one with x zero,
    one with norms rounded to quarters (radii tied at r_k) and one whose 250 smallest radii are zero."""
    rows = [_dgp_sample(seed=s) for s in range(4)]
    nx, ny, ips = (np.array(v) for v in zip(*[(norms(x), norms(y), inner_products(x, y)) for x, y in rows]))
    nx, ny, ips = (np.concatenate([v, v[:2], v[:2]]) for v in (nx, ny, ips))
    top = np.argsort(np.maximum(nx[4], ny[4]))[-50:]
    nx[4, top] = ny[4, top] = nx[4, top].max()  # 50 tied top radii
    nx[5] = ips[5] = 0.0  # x vanishes
    nx[6], ny[6] = np.round(nx[6] * 4) / 4, np.round(ny[6] * 4) / 4
    low = np.argsort(np.maximum(nx[7], ny[7]))[:250]
    nx[7, low] = ny[7, low] = 0.0
    return nx, ny, ips


def _same_row(got, want):
    if isinstance(want, EccError):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same(got, want)


@pytest.mark.parametrize("k_method, k", [("mindist", None), ("ks", None), ("fixed", 30)])
def test_radius_rows_equal_their_one_row_calls(k_method, k):
    nx, ny, ips = _radius_stage_rows()
    rows = estimators._radius_rows(nx, ny, [r.__getitem__ for r in ips], k_method, k)
    assert len(rows) == len(nx)
    for b, got in enumerate(rows):
        (want,) = estimators._radius_rows(nx[b : b + 1], ny[b : b + 1], [ips[b].__getitem__], k_method, k)
        _same_row(got, want)
        if not isinstance(got, EccError):  # r_k read from the sorted row is the order statistic
            assert got.r_k == order_statistic(np.maximum(nx[b], ny[b]), got.k)
    assert isinstance(rows[5], DegenerateSampleError)
    if k_method == "mindist":
        assert isinstance(rows[4], DegenerateTailError)
        assert str(rows[4]) == "tied top order statistics in the candidate range"
    assert sum(isinstance(r, EccError) for r in rows[:4] + rows[6:]) == 0
    assert np.count_nonzero(np.maximum(nx[6], ny[6]) == rows[6].r_k) > 1  # r_k is a tied radius


@pytest.mark.parametrize("k_method", ["mindist", "ks"])
def test_each_margin_and_each_radius_row_is_sorted_once(monkeypatch, k_method):
    shapes, sort = [], np.sort

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting)
    samples = [x for s in range(2) for x in _dgp_sample(seed=s)]
    n = samples[0].shape[0]
    estimate_pipeline(*samples[:2], k_method=k_method)
    assert shapes == [(n,)] * 2 + [(1, n)]  # the two margins, then the pair's radius row
    shapes.clear()
    pairwise_matrix(samples, k_method=k_method)
    assert shapes == [(n,)] * 4 + [(1, n)] * 6


@pytest.mark.parametrize("k_method, k", [("mindist", None), ("fixed", 30)])
def test_radius_rows_abort_on_a_nonpositive_top_radius(k_method, k):
    nx, ny, ips = _radius_stage_rows()
    nx[2] = ny[2] = 0.0
    with pytest.raises(DomainError, match="must be strictly positive"):
        estimators._radius_rows(nx, ny, [r.__getitem__ for r in ips], k_method, k)


def _golden_pairwise_inputs():
    """The six curve samples of the golden corpus's pairwise commands (their CSV files parse to these bits)."""
    rho = invert_oracle(0.6, 3.0)
    cfgs = [DgpConfig(rho=rho, alpha=3.0, n=300, J=20, seed=11),
            DgpConfig(rho=0.0, alpha=3.0, n=300, J=20, seed=12, variant="bernoulli"),
            DgpConfig(rho=rho, alpha=3.0, n=300, J=20, seed=13, variant="phase", delta=0.3)]
    return [s for cfg in cfgs for s in generate_paired(cfg)]


def _sample_alphas(reports, m):
    return [reports[(0, 1)].tail_x.alpha_hat] + [reports[(0, b)].tail_y.alpha_hat for b in range(1, m)]


def _transformed_samples(monkeypatch, samples, **options):
    """Which samples computed transform factors (one index per call), and the samples of the pairs that fired."""
    alpha_sources = []
    power_scales = estimators._power_scales

    def recording(r, alpha_source, alpha_target):
        alpha_sources.append(alpha_source)
        return power_scales(r, alpha_source, alpha_target)

    monkeypatch.setattr(estimators, "_power_scales", recording)
    reports = pairwise_matrix(samples, return_reports=True, **options)[1]
    alphas = _sample_alphas(reports, len(samples))
    fired = {i for (a, b), rep in reports.items() if rep.transformed for i in (a, b)}
    return [alphas.index(alpha) for alpha in alpha_sources], fired


def test_transform_factors_are_computed_once_per_sample(monkeypatch):
    calls, fired = _transformed_samples(monkeypatch, _golden_pairwise_inputs())
    assert sorted(calls) == sorted(fired) == list(range(6))  # 12 of the 15 pairs fire


def test_a_sample_none_of_whose_pairs_fire_pays_no_transform(monkeypatch):
    x, _ = _dgp_sample(seed=3)
    samples = [x, np.sign(x) * np.abs(x) ** 1.5, np.sign(x) * x**2]
    alphas = np.array(_sample_alphas(pairwise_matrix(samples, return_reports=True, tau=np.inf)[1], 3))
    gaps = np.diff(np.sort(alphas))
    assert np.all(gaps > 0)
    # tau at the larger gap: only the two outer samples differ by more
    calls, fired = _transformed_samples(monkeypatch, samples, tau=float(gaps.max()))
    assert sorted(calls) == sorted(fired) == sorted(np.argsort(alphas)[[0, 2]].tolist())


# --- exact metamorphic relations --------------------------------------------


def _outcome(f, *args, **options):
    try:
        return f(*args, **options)
    except EccError as exc:
        return exc


_metamorphic_cases = dict(n=st.integers(20, 400), seed=st.integers(0, 2**32 - 1),
                          k_method=st.sampled_from(["mindist", "ks"]), fire=st.booleans(),
                          do_center=st.booleans())


def _metamorphic_pair(n, seed, fire):
    """A DGP pair (J = 6); with ``fire`` y's tail index is halved and tau = 0, so the transform fires."""
    x, y = draw_paired(np.random.default_rng(seed), DgpConfig(rho=0.5, alpha=3.0, n=n, J=6))
    return (x, np.sign(y) * y**2, 0.0) if fire else (x, y, np.inf)


def _reference_ecc(x, y, rep):
    """ecc_report at the pipeline's k on explicitly centered and, when it fired, transformed copies."""
    if rep.centered:
        x, y = x - x.mean(axis=0), y - y.mean(axis=0)
    if rep.transformed:
        x = power_transform(x, rep.tail_x.alpha_hat, rep.alpha_target)
        y = power_transform(y, rep.tail_y.alpha_hat, rep.alpha_target)
    return ecc_report(x, y, rep.ecc.k)


@settings(max_examples=60, deadline=None)
@given(**_metamorphic_cases)
def test_pipeline_is_exactly_symmetric_in_its_margins(n, seed, k_method, fire, do_center):
    x, y, tau = _metamorphic_pair(n, seed, fire)
    xy = _outcome(estimate_pipeline, x, y, k_method=k_method, tau=tau, do_center=do_center)
    yx = _outcome(estimate_pipeline, y, x, k_method=k_method, tau=tau, do_center=do_center)
    if isinstance(xy, EccError):
        assert type(yx) is type(xy)
        return
    assert xy.transformed == yx.transformed == fire
    for f in ("k", "r_k", "sigma_xy", "rho_xy", "gamma_xy"):
        assert getattr(xy.ecc, f) == getattr(yx.ecc, f), f
    assert np.array_equal(xy.ecc.exceedance_indices, yx.ecc.exceedance_indices)
    # anchored to explicit copies, since a swap of the two margins' factors is itself symmetric
    _assert_same(xy.ecc, _reference_ecc(x, y, xy))


@settings(max_examples=60, deadline=None)
@given(**_metamorphic_cases)
def test_negating_a_margin_negates_sigma_rho_and_gamma_exactly(n, seed, k_method, fire, do_center):
    x, y, tau = _metamorphic_pair(n, seed, fire)
    pos = _outcome(estimate_pipeline, x, y, k_method=k_method, tau=tau, do_center=do_center)
    neg = _outcome(estimate_pipeline, x, -y, k_method=k_method, tau=tau, do_center=do_center)
    if isinstance(pos, EccError):
        assert type(neg) is type(pos)
        return
    assert neg.transformed == pos.transformed == fire
    assert (neg.ecc.k, neg.ecc.r_k) == (pos.ecc.k, pos.ecc.r_k)
    assert (neg.ecc.sigma_xy, neg.ecc.rho_xy, neg.ecc.gamma_xy) == (
        -pos.ecc.sigma_xy, -pos.ecc.rho_xy, -pos.ecc.gamma_xy)


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(range(4)), **_metamorphic_cases)
def test_permuting_pairwise_inputs_permutes_the_matrix_exactly(perm, n, seed, k_method, fire, do_center):
    x, y, tau = _metamorphic_pair(n, seed, fire)
    samples = [x, y, np.sign(y) * np.abs(y) ** 1.5, _metamorphic_pair(n, seed + 1, False)[0]]
    options = dict(k_method=k_method, tau=tau, do_center=do_center)
    matrix = _outcome(pairwise_matrix, samples, **options)
    permuted = _outcome(pairwise_matrix, [samples[i] for i in perm], **options)
    if isinstance(matrix, EccError):
        assert isinstance(permuted, EccError)
        return
    assert np.array_equal(permuted, matrix[np.ix_(perm, perm)])


def _exactly_scalable(*arrays):
    """Whether every square of every entry is a normal float and each array's sum of squares is finite."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return all(np.all(a * a >= np.finfo(float).tiny) and np.sum(a * a) < np.inf for a in arrays)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(20, 400), seed=st.integers(0, 2**32 - 1), e=st.integers(-1100, 1100))
def test_power_of_two_scaling_keeps_the_bits_or_raises_a_typed_error(n, seed, e):
    x, y, _ = _metamorphic_pair(n, seed, False)
    k = max(2, n // 10)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        xs, ys = np.ldexp(x, e), np.ldexp(y, e)
        centered = [a - a.mean(axis=0) for a in (xs, ys)]
    for scaled, unscaled, inside in (
        (_outcome(ecc_report, xs, ys, k), ecc_report(x, y, k), _exactly_scalable(xs, ys)),
        (_outcome(estimate_pipeline, xs, ys, k=k, tau=np.inf), estimate_pipeline(x, y, k=k, tau=np.inf).ecc,
         _exactly_scalable(xs, ys, *centered)),
    ):
        if isinstance(scaled, PipelineReport):
            scaled = scaled.ecc
        expected = (unscaled.sigma_xy, unscaled.rho_xy, unscaled.gamma_xy)
        if inside:
            assert (scaled.sigma_xy, scaled.rho_xy, scaled.gamma_xy) == expected
        elif not isinstance(scaled, EccError):
            # near the underflow edge some squares are subnormal while k r_k^2 is still normal
            assert np.allclose((scaled.sigma_xy, scaled.rho_xy, scaled.gamma_xy), expected, rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None)
@given(e=st.integers(-1000, 1000), **{name: case for name, case in _metamorphic_cases.items() if name != "fire"})
@example(e=-1000, n=200, seed=1, k_method="mindist", do_center=False)
@example(e=-400, n=200, seed=1, k_method="mindist", do_center=True)  # the norm sums' product underflows
@example(e=1000, n=200, seed=1, k_method="ks", do_center=True)
def test_power_of_two_scaling_with_the_transform_firing_gives_a_valid_estimate_or_a_typed_error(
        e, n, seed, k_method, do_center):
    # the transform is not scale-equivariant, so only validity is required, not the unscaled bits
    x, y, _ = _metamorphic_pair(n, seed, True)
    with np.errstate(over="ignore", under="ignore"):
        xs, ys = np.ldexp(x, e), np.ldexp(y, e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _outcome(estimate_pipeline, xs, ys, k_method=k_method, tau=0.0, do_center=do_center)
    if isinstance(rep, EccError):
        return
    assert rep.transformed
    assert np.all(np.isfinite((rep.ecc.sigma_xy, rep.ecc.rho_xy, rep.ecc.gamma_xy)))
    assert -1.0 <= rep.ecc.rho_xy <= 1.0


@pytest.mark.parametrize("e", [-480, -300, 0, 250, 260, 300, 480])
def test_rho_is_exact_where_the_product_of_the_norm_sums_under_or_overflows(e):
    x, y = generate_paired(DgpConfig(rho=0.5, alpha=3, n=500, J=20, seed=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ecc_report(np.ldexp(x, e), np.ldexp(y, e), 20).rho_xy == 0.580377205155214


def test_overflowing_exceedance_sums_raise_a_domain_error_naming_the_pair():
    # every norm is finite and so is its square, but the sum of the top ten squares is not
    rows = np.linspace(1.0, 0.9, 30)[:, None] * np.full((30, 4), 5e153)
    with pytest.raises(DomainError, match=r"^x and y: the sums over the exceedance set overflow"):
        estimate_pipeline(rows, rows, k=10, tau=np.inf, do_center=False)
    with pytest.raises(DomainError, match=r"^sample 0 and sample 1: the sums"):
        pairwise_matrix([rows, rows], k=10, tau=np.inf, do_center=False)


def test_an_overflowing_mean_curve_raises_a_domain_error_naming_the_sample():
    # each value and each norm is finite, but the column sums behind the mean curve are not
    ok, big = np.random.default_rng(0).standard_normal((500, 3)), np.full((500, 3), 1e306)
    with pytest.raises(DomainError, match=r"^x: the mean curve overflows$"):
        estimate_pipeline(big, ok)
    with pytest.raises(DomainError, match=r"^y: the mean curve overflows$"):
        estimate_pipeline(ok, big)
    with pytest.raises(DomainError, match=r"^sample 1: the mean curve overflows$"):
        pairwise_matrix([ok, big, ok])


def test_centered_values_that_overflow_raise_a_domain_error_naming_the_sample():
    # the mean curve is finite (-1.2e306), but the largest curve minus it is not
    ok, big = np.random.default_rng(0).standard_normal((30, 4)), np.ones((30, 4))
    big[0], big[1:3] = np.finfo(float).max, -0.6 * np.finfo(float).max
    with pytest.raises(DomainError, match=r"^x: centered curves overflow$"):
        estimate_pipeline(big, ok)
    with pytest.raises(DomainError, match=r"^sample 2: centered curves overflow$"):
        pairwise_matrix([ok, ok, big])
