import hashlib

import numpy as np
import pytest

from ecc import (
    DgpConfig,
    DomainError,
    basis,
    bias_experiment,
    draw_paired,
    draw_symmetric_pareto,
    generate_concentrated,
    generate_paired,
    generate_shared_score,
    inner_product,
    invert_oracle,
    norms,
    oracle_rho,
    oracle_rho_bernoulli,
    pair_radii,
    phase_shift,
    replicate_rho,
    select_k,
)
from ecc.errors import DegenerateSampleError, DegenerateTailError
from ecc.estimators import _exceedances, _paired
from ecc.simulate import _gram_norms

# frozen with mpmath at 30 digits: 0.5 / sqrt(0.25 + 0.75^1.5)
ORACLE_HALF_ALPHA3 = 0.527187156166255


# --- basis ----------------------------------------------------------------


def test_basis_endpoint_values():
    assert basis(1, 100)[-1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert basis(2, 100)[-1] == pytest.approx(-np.sqrt(2.0), abs=1e-12)


def test_basis_near_orthogonal_on_fine_grid():
    assert inner_product(basis(1, 1000), basis(2, 1000)) == pytest.approx(0.0, abs=0.01)


def test_basis_rejects_bad_orders():
    with pytest.raises(DomainError):
        basis(0, 10)
    with pytest.raises(DomainError):
        basis(1, 1)


# --- symmetric Pareto -------------------------------------------------------


def test_pareto_support_minimum():
    assert draw_symmetric_pareto(3.0, 1.0, 0.0) == pytest.approx(1.0)


def test_pareto_hand_values():
    assert draw_symmetric_pareto(3.0, 0.125, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert draw_symmetric_pareto(3.0, 0.125, 0.9) == pytest.approx(-2.0, abs=1e-12)


def test_pareto_rejects_zero_u():
    with pytest.raises(DomainError):
        draw_symmetric_pareto(3.0, 0.0, 0.1)


def test_pareto_marginal_law():
    rng = np.random.default_rng(42)
    n = 100_000
    z = draw_symmetric_pareto(3.0, 1.0 - rng.random(n), rng.random(n))
    mag = np.abs(z)
    for level in (1.0, 2.0, 4.0, 8.0):
        p = level**-3.0
        se = np.sqrt(p * (1 - p) / n)
        assert np.mean(mag > level) == pytest.approx(p, abs=3 * se + 1e-9)
    # signs are balanced
    assert np.mean(z > 0) == pytest.approx(0.5, abs=0.01)


# --- generators -------------------------------------------------------------


def test_generate_paired_shapes():
    cfg = DgpConfig(rho=0.3, alpha=3.0, n=17, J=23, seed=5)
    x, y = generate_paired(cfg)
    assert x.shape == (17, 23)
    assert y.shape == (17, 23)


def test_generate_paired_deterministic_in_seed():
    cfg = DgpConfig(rho=0.3, alpha=3.0, n=50, J=40, seed=123)
    x1, y1 = generate_paired(cfg)
    x2, y2 = generate_paired(cfg)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    x3, _ = generate_paired(DgpConfig(rho=0.3, alpha=3.0, n=50, J=40, seed=124))
    assert not np.array_equal(x1, x3)


def test_rho_one_shares_the_heavy_coefficient():
    cfg = DgpConfig(rho=1.0, alpha=3.0, n=30, J=60, seed=9)
    x, y = generate_paired(cfg)
    design = np.stack([basis(j, 60) for j in (1, 2, 3)]).T
    coef_x = np.linalg.lstsq(design, x.T, rcond=None)[0]
    coef_y = np.linalg.lstsq(design, y.T, rcond=None)[0]
    assert np.allclose(coef_x[0], coef_y[0], rtol=1e-9)


def test_config_validation():
    with pytest.raises(DomainError):
        DgpConfig(rho=1.5, alpha=3.0, n=10)
    with pytest.raises(DomainError):
        DgpConfig(rho=0.0, alpha=2.0, n=10)
    with pytest.raises(DomainError):
        DgpConfig(rho=0.0, alpha=3.0, n=10, variant="nope")
    with pytest.raises(DomainError):
        DgpConfig(rho=0.0, alpha=3.0, n=10, variant="phase", delta=1.0)
    with pytest.raises(DomainError):
        DgpConfig(rho=0.0, alpha=3.0, n=10, variant="bernoulli", p_a=1.2)
    for kwargs, name in (({"alpha": np.nan}, "alpha"), ({"noise_variance": np.nan}, "noise_variance"),
                         ({"noise_variance": np.inf}, "noise_variance"), ({"seed": -1}, "seed")):
        with pytest.raises(DomainError, match=f"^{name} must"):
            DgpConfig(**{"rho": 0.0, "alpha": 3.0, "n": 10, **kwargs})


# sha256 of x.tobytes() and y.tobytes(): draw_paired shares its score drawer with
# replicate_rho, and `ecc simulate` files must keep their bits
PINNED_DRAWS = [
    (DgpConfig(rho=0.6, alpha=3.0, n=40, J=30, seed=11),
     "27b5261f5e948383a36f4eb7f25a8238815a133503f2e2475736be14a6a680b2",
     "aa7c6cef934066309fbd9df7676d704ae48114d399ad0b285ec8d80a1235b3d9"),
    (DgpConfig(rho=0.0, alpha=3.0, n=40, J=30, seed=12, variant="bernoulli", p_a=0.5, p_b=0.5),
     "8e3a25af686ab8d4fc16994152ca5e70a8335169fa8e7a08e43079a8347f4404",
     "f05bb600606f64a075730f80f9f08c8d17e24889e52ba07ac34e8ccdf8586174"),
    (DgpConfig(rho=0.6, alpha=3.0, n=40, J=30, seed=13, variant="phase", delta=0.3),
     "01e39c0469360c498a01996304ba64426cc7d55072a48851db4364f14c8abe5c",
     "8ef77c412610da545acfccda7b7b9dec79bd88cacde1bc4a5567f36e48f06e05"),
]


@pytest.mark.parametrize("cfg,sha_x,sha_y", PINNED_DRAWS, ids=["base", "bernoulli", "phase"])
def test_generate_paired_bits_are_pinned(cfg, sha_x, sha_y):
    x, y = generate_paired(cfg)
    assert hashlib.sha256(x.tobytes()).hexdigest() == sha_x
    assert hashlib.sha256(y.tobytes()).hexdigest() == sha_y


def test_bernoulli_variant_all_gates_open_means_equal_margins():
    cfg = DgpConfig(rho=0.0, alpha=3.0, n=40, J=30, seed=3, variant="bernoulli", p_a=1.0, p_b=1.0)
    x, y = generate_paired(cfg)
    assert np.allclose(x, y)


def test_bernoulli_variant_uses_two_components():
    cfg = DgpConfig(rho=0.0, alpha=3.0, n=25, J=40, seed=4, variant="bernoulli", p_a=0.5, p_b=0.5)
    x, y = generate_paired(cfg)
    design = np.stack([basis(j, 40) for j in (1, 2, 3)]).T
    coef = np.linalg.lstsq(design, x.T, rcond=None)[0]
    assert np.allclose(coef[2], 0.0, atol=1e-9)


def test_phase_variant_matches_shifting_the_base_y():
    base = DgpConfig(rho=0.6, alpha=3.0, n=20, J=50, seed=8)
    shifted = DgpConfig(rho=0.6, alpha=3.0, n=20, J=50, seed=8, variant="phase", delta=0.3)
    x_b, y_b = generate_paired(base)
    x_s, y_s = generate_paired(shifted)
    assert np.array_equal(x_b, x_s)
    assert np.array_equal(y_s, phase_shift(y_b, 0.3))


# --- phase_shift ------------------------------------------------------------


def test_phase_shift_zero_delta_is_identity():
    s = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(phase_shift(s, 0.0), s)


def test_phase_shift_hand_example():
    out = phase_shift(np.array([[1.0, 2.0, 3.0, 4.0]]), 0.25)
    assert np.array_equal(out, [[0.0, 1.0, 2.0, 3.0]])


def test_phase_shift_never_grows_the_norm():
    rng = np.random.default_rng(12)
    s = rng.normal(size=(30, 20))
    assert np.all(norms(phase_shift(s, 0.35)) <= norms(s) + 1e-12)


# --- oracles ----------------------------------------------------------------


def test_oracle_rho_fixed_points():
    assert oracle_rho(0.0, 3.0) == 0.0
    assert oracle_rho(1.0, 3.0) == pytest.approx(1.0, abs=1e-14)
    assert oracle_rho(-1.0, 3.0) == pytest.approx(-1.0, abs=1e-14)


def test_oracle_rho_frozen_value():
    assert oracle_rho(0.5, 3.0) == pytest.approx(ORACLE_HALF_ALPHA3, abs=1e-12)


def test_oracle_rho_bounds_and_sign():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rho = float(rng.uniform(-1, 1))
        alpha = float(rng.uniform(2.01, 8.0))
        val = oracle_rho(rho, alpha)
        assert abs(val) <= 1.0 + 1e-12
        assert abs(val) >= abs(rho) - 1e-12
        assert np.sign(val) == np.sign(rho) or rho == 0.0


def test_oracle_rho_odd():
    for rho in (0.2, 0.55, 0.91):
        assert oracle_rho(-rho, 3.5) == pytest.approx(-oracle_rho(rho, 3.5), abs=1e-14)


def test_oracle_monotone_on_dense_grid():
    for alpha in (2.5, 3.0, 5.0):
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        vals = np.array([oracle_rho(r, alpha) for r in grid])
        assert np.all(np.diff(vals) > 0.0)


def test_invert_oracle_fixed_points():
    assert invert_oracle(0.0, 3.0) == 0.0
    assert invert_oracle(1.0, 3.0) == 1.0
    assert invert_oracle(-1.0, 3.0) == -1.0


def test_invert_oracle_frozen_value():
    assert invert_oracle(ORACLE_HALF_ALPHA3, 3.0) == pytest.approx(0.5, abs=1e-6)


def test_oracle_round_trip():
    for alpha in (2.2, 3.0, 4.0, 6.0):
        for target in np.linspace(-1.0, 1.0, 41):
            rho = invert_oracle(float(target), alpha)
            assert oracle_rho(rho, alpha) == pytest.approx(float(target), abs=1e-8)


def test_oracle_bernoulli():
    assert oracle_rho_bernoulli(1.0, 1.0) == 1.0
    assert oracle_rho_bernoulli(0.0, 0.7) == 0.0
    assert oracle_rho_bernoulli(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


# --- shared-score and concentrated presets -----------------------------------


def test_shared_score_margins_share_extremes():
    x, y = generate_shared_score(n=500, alpha=3.0, J=40, seed=2)
    nx, ny = norms(x), norms(y)
    top_x = set(np.argsort(nx)[-20:].tolist())
    top_y = set(np.argsort(ny)[-20:].tolist())
    assert len(top_x & top_y) >= 10  # same heavy score drives both margins


def test_concentrated_preset_dominated_by_one_axis():
    s = generate_concentrated(axis=2, n=400, alpha=3.0, J=60, seed=3)
    r = norms(s)
    extreme = s[np.argmax(r)]
    direction = extreme / norms(extreme[None, :])[0]
    alignment = abs(inner_product(direction, basis(2, 60)))
    assert alignment > 0.9


# --- replication harness ------------------------------------------------------


def test_replicate_rho_deterministic_and_thread_invariant():
    cfg = DgpConfig(rho=0.5, alpha=3.0, n=60, J=30)
    a = replicate_rho(cfg, reps=12, seed=77, k_method="fixed", k_fixed=10)
    b = replicate_rho(cfg, reps=12, seed=77, k_method="fixed", k_fixed=10)
    c = replicate_rho(cfg, reps=12, seed=77, k_method="fixed", k_fixed=10, threads=4)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[0], c[0])
    d = replicate_rho(cfg, reps=12, seed=78, k_method="fixed", k_fixed=10)
    assert not np.array_equal(a[0], d[0])


def _grid_rho(cfg, stream, k_method, k_fixed):
    nx, ny, radii, inner_products = _paired(*draw_paired(np.random.default_rng(stream), cfg))
    try:
        k = select_k(radii, k_method, k_fixed).k
        return _exceedances(nx, ny, radii, inner_products, k).rho_xy, k
    except (DegenerateSampleError, DegenerateTailError):
        return np.nan, 0


@pytest.mark.parametrize("variant", [{}, {"variant": "bernoulli"}, {"variant": "phase", "delta": 0.3}],
                         ids=["base", "bernoulli", "phase"])
@pytest.mark.parametrize("k_method,k_fixed", [("mindist", None), ("ks", None), ("fixed", 25)])
def test_replicate_rho_matches_the_grid_path(variant, k_method, k_fixed):
    cfg = DgpConfig(rho=invert_oracle(0.7, 3.0), alpha=3.0, n=400, J=50, **variant)
    reps, seed = 12, 2024
    rho_hats, ks, failed = replicate_rho(cfg, reps, seed, k_method, k_fixed)
    grid = [_grid_rho(cfg, s, k_method, k_fixed) for s in np.random.SeedSequence(seed).spawn(reps)]
    grid_rho = np.array([r for r, _ in grid])
    good = ~np.isnan(grid_rho)
    assert failed == reps - good.sum()
    assert np.array_equal(ks, [k for (_, k), g in zip(grid, good) if g])
    assert np.max(np.abs(rho_hats - grid_rho[good])) <= 1e-12


def test_gram_norms_raise_on_negative_or_nan_forms_without_warning():
    c = np.array([[1.0, 2.0], [3.0, -1.0]])
    with pytest.raises(DomainError, match="curve norms"):
        _gram_norms(c, -np.eye(2))
    with pytest.raises(DomainError, match="curve norms"):
        _gram_norms(np.array([[np.inf, 1.0]]), np.eye(2))
    with pytest.raises(DomainError, match="curve norms"):
        _gram_norms(np.array([[1e200, 1e200]]), np.eye(2))
    assert np.array_equal(_gram_norms(c, np.eye(2)), np.sqrt([5.0, 10.0]))


@pytest.mark.parametrize("kwargs,name", [({"threads": 0}, "threads"), ({"threads": -3}, "threads"),
                                         ({"seed": -4}, "seed")])
def test_replicate_rho_and_bias_experiment_range_check_threads_and_seed(kwargs, name):
    cfg = DgpConfig(rho=0.5, alpha=3.0, n=60, J=30)
    run = {"seed": 1, **kwargs}
    with pytest.raises(DomainError, match=f"^{name} must"):
        replicate_rho(cfg, 2, run["seed"], "fixed", 8, threads=run.get("threads", 1))
    with pytest.raises(DomainError, match=f"^{name} must"):
        bias_experiment([0.5], alpha=3.0, n=60, reps=2, k_method="fixed", k_fixed=8, **run)


def test_bias_experiment_table_shape_and_determinism():
    t1 = bias_experiment([0.0, 0.5], alpha=3.0, n=60, reps=5, k_method="fixed", k_fixed=8, seed=5)
    t2 = bias_experiment([0.0, 0.5], alpha=3.0, n=60, reps=5, k_method="fixed", k_fixed=8, seed=5)
    assert [r.mean for r in t1.rows] == [r.mean for r in t2.rows]
    assert [r.rho_xy_target for r in t1.rows] == [0.0, 0.5]
    for row in t1.rows:
        assert row.reps == 5
        assert row.failed == 0
        assert row.se >= 0.0
        assert row.mean_k == 8.0


def test_bias_experiment_single_rep_has_zero_se():
    t = bias_experiment([0.3], alpha=3.0, n=60, reps=1, k_method="fixed", k_fixed=8, seed=6)
    assert t.rows[0].se == 0.0
    assert t.rows[0].reps == 1


def test_experiment_table_emitters():
    t = bias_experiment([0.0, 0.9], alpha=3.0, n=60, reps=3, k_method="fixed", k_fixed=8, seed=7)
    csv_text = t.to_wide_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "alpha,rho_xy,bias[n=60],se[n=60]"
    assert len(lines) == 3
    data = t.to_json_dict()
    assert data["schema_version"] == 1
    assert len(data["rows"]) == 2
    assert {"mean", "bias", "se", "mean_k"} <= set(data["rows"][0])


def test_phase_shift_attenuates_rho(tmp_path):
    base = DgpConfig(rho=invert_oracle(0.9, 3.0), alpha=3.0, n=100, J=100)
    shifted = DgpConfig(rho=invert_oracle(0.9, 3.0), alpha=3.0, n=100, J=100, variant="phase", delta=0.3)
    r_base, _, _ = replicate_rho(base, reps=100, seed=11)
    r_shift, _, _ = replicate_rho(shifted, reps=100, seed=11)
    assert np.mean(r_shift) <= np.mean(r_base) + 0.02
