import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ecc import (
    DgpConfig,
    DomainError,
    basis,
    bias_experiment,
    draw_paired,
    ecc_report,
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
from ecc import simulate
from ecc.errors import DegenerateSampleError, DegenerateTailError
from ecc.simulate import _BLOCK, _gram_norms, _symmetric_pareto

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
    assert _symmetric_pareto(3.0, 1.0, 0.0) == pytest.approx(1.0)


def test_pareto_hand_values():
    assert _symmetric_pareto(3.0, 0.125, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert _symmetric_pareto(3.0, 0.125, 0.9) == pytest.approx(-2.0, abs=1e-12)


def test_pareto_marginal_law():
    rng = np.random.default_rng(42)
    n = 100_000
    z = _symmetric_pareto(3.0, 1.0 - rng.random(n), rng.random(n))
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


# name: (a call at alpha, the bound alpha must exceed): the special generators need a finite
# alpha > 0, the base generator and its oracles a finite alpha > 2
_ALPHA_DOMAINS = {
    "generate_shared_score": (lambda a: generate_shared_score(n=20, alpha=a, J=5), 0),
    "generate_concentrated": (lambda a: generate_concentrated(axis=1, n=20, alpha=a, J=5), 0),
    "DgpConfig": (lambda a: DgpConfig(rho=0.5, alpha=a, n=10), 2),
    "oracle_rho": (lambda a: oracle_rho(0.5, a), 2),
    "invert_oracle": (lambda a: invert_oracle(0.5, a), 2),
}


@pytest.mark.parametrize("name,alpha", [
    (name, alpha) for name, (_, floor) in _ALPHA_DOMAINS.items()
    for alpha in [np.nan, np.inf, -np.inf, 0.0, -1.0] + [2.0] * (floor == 2)
])
def test_alpha_outside_its_domain_raises_naming_alpha(name, alpha):
    call, floor = _ALPHA_DOMAINS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^alpha must exceed {floor} and be finite, got {alpha}$"):
            call(alpha)


# sha256 of x.tobytes() and y.tobytes(): draw_paired shares its score drawer with
# replicate_rho, and `ecc simulate` files must keep their bits
PINNED_DRAWS = [
    (DgpConfig(rho=0.6, alpha=3.0, n=40, J=30, seed=11),
     "27b5261f5e948383a36f4eb7f25a8238815a133503f2e2475736be14a6a680b2",
     "aa7c6cef934066309fbd9df7676d704ae48114d399ad0b285ec8d80a1235b3d9"),
    (DgpConfig(rho=0.0, alpha=3.0, n=40, J=30, seed=12, variant="bernoulli", p_a=0.5, p_b=0.5),
     "7a842c0695940912a410566897fb54636fb8e9abd0809bacdfb6d062f37b2d79",
     "ba0241ebd828e6ff3c23992004545f278226d755fbea815233242cedc3665c9b"),
    (DgpConfig(rho=0.6, alpha=3.0, n=40, J=30, seed=13, variant="phase", delta=0.3),
     "01e39c0469360c498a01996304ba64426cc7d55072a48851db4364f14c8abe5c",
     "8ef77c412610da545acfccda7b7b9dec79bd88cacde1bc4a5567f36e48f06e05"),
]


@pytest.mark.parametrize("cfg,sha_x,sha_y", PINNED_DRAWS, ids=["base", "bernoulli", "phase"])
def test_generate_paired_bits_are_pinned(cfg, sha_x, sha_y):
    x, y = generate_paired(cfg)
    assert hashlib.sha256(x.tobytes()).hexdigest() == sha_x
    assert hashlib.sha256(y.tobytes()).hexdigest() == sha_y


@pytest.mark.parametrize("variant", ["base", "bernoulli", "phase"])
def test_a_curves_bits_do_not_depend_on_where_the_row_blocks_split(monkeypatch, variant):
    cfg = DgpConfig(rho=0.5, alpha=3.0, n=164, J=100, seed=0, variant=variant)
    assert simulate._row_blocks(164, 100)[-1].start == 163  # the last row makes a block alone
    x, y = generate_paired(cfg)
    monkeypatch.setattr(simulate, "_row_blocks", lambda n, J: [slice(0, 162), slice(162, 164)])
    x2, y2 = generate_paired(cfg)  # row 163 inside a two-row block
    assert np.array_equal(x, x2) and np.array_equal(y, y2)


def _sample_hashes() -> dict[str, list[str]]:
    """The sha256 of every sample each generator makes at one small configuration."""
    samples = {v: generate_paired(DgpConfig(rho=0.5, alpha=3.0, n=164, J=100, seed=1, variant=v))
               for v in simulate.VARIANTS}
    samples["concentrated"] = (generate_concentrated(3, 164, 3.0, J=100, seed=1),)
    samples["shared_score"] = generate_shared_score(164, 3.0, J=100, seed=1)
    return {name: [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays] for name, arrays in samples.items()}


def test_generated_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS's Sandybridge kernel has no FMA, so any BLAS product in a generator would change bits
    tests = Path(__file__).parent
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge",
           "PYTHONPATH": os.pathsep.join([str(Path(simulate.__file__).parents[1]), str(tests)])}
    probe = "import json, test_simulate; print(json.dumps(test_simulate._sample_hashes()))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == _sample_hashes()


def test_generate_paired_with_n_too_large_for_memory_names_n(monkeypatch):
    def no_memory(rng, alpha, size):
        raise MemoryError  # what drawing 1e12 scores raises on a host without 8 TB, allocating nothing here

    monkeypatch.setattr(simulate, "_pareto", no_memory)
    with pytest.raises(DomainError, match="^n = 1000000000000 curves do not fit in memory$"):
        generate_paired(DgpConfig(rho=0.5, alpha=3.0, n=10**12))


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
    x, y = draw_paired(np.random.default_rng(stream), cfg)
    try:
        k = select_k(pair_radii(x, y), k_method, k_fixed).k
        return ecc_report(x, y, k).rho_xy, k
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


@pytest.mark.parametrize("k_method", ["mindist", "ks"])
def test_replicate_rho_k_fixed_fixes_k_whatever_the_method(k_method):
    cfg = DgpConfig(rho=0.5, alpha=3, n=200, J=20)
    rho_hats, ks, failed = replicate_rho(cfg, 3, 0, k_method=k_method, k_fixed=10)
    assert ks.tolist() == [10.0, 10.0, 10.0] and failed == 0
    assert np.array_equal(rho_hats, replicate_rho(cfg, 3, 0, k_method="fixed", k_fixed=10)[0])


def test_replicate_rho_rejects_an_unknown_k_method_before_any_draw(monkeypatch):
    draws = []
    monkeypatch.setattr(simulate, "_scores", lambda rng, cfg: draws.append(cfg))
    with pytest.raises(DomainError, match="^unknown k_method 'bogus'$"):
        replicate_rho(DgpConfig(rho=0.5, alpha=3, n=200, J=20), 3, 0, k_method="bogus", k_fixed=10)
    assert draws == []


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


# --- replications in blocks ----------------------------------------------------

BLOCK_CFGS = {
    "base": DgpConfig(rho=invert_oracle(0.7, 3.0), alpha=3.0, n=200, J=20),
    "bernoulli": DgpConfig(rho=0.0, alpha=3.0, n=200, J=20, variant="bernoulli"),
    "phase": DgpConfig(rho=invert_oracle(0.7, 3.0), alpha=3.0, n=200, J=20, variant="phase", delta=0.3),
    # x is zero on most rows: many replications have a zero margin on their exceedances
    "degenerate": DgpConfig(rho=0.0, alpha=3.0, n=60, J=10, variant="bernoulli", p_a=0.03, p_b=0.6,
                            noise_variance=0.0),
}

# sha256 of rho_hats.tobytes() and ks.tobytes(), and the failure count, of
# replicate_rho(cfg, reps, 2026) (mindist) as computed one replication at a time,
# before replications ran in blocks (of _BLOCK = 8)
PINNED_BLOCK_RUNS = {
    ("base", 1): ("f54cc742bd70f58dd751ddcf08add279e7bb441606f8289012e87beecfe9f17b",
        "9ee2b49423e1506ec86b25b2febb317da93338f594cdcdcd1b38e3a726706de0", 0),
    ("base", 7): ("9cd58c91fb920ed330c0404a9173fab9185f9bcb0dc348220648e0ef0143e96b",
        "5a2f4d43ecfa52a047a776d30a06b89a6e57eaaa7baa0e541b48c5e1705ce2d4", 0),
    ("base", 8): ("14fe72ad2bd3d0e7d174405ebde2bb2a7f0bfe943aeb020b8e75f3cea5f5c7b6",
        "fb899400f02e803cccdd62891504b8afe93bf1f366c5c91cc55b54e15a09d6a9", 0),
    ("base", 9): ("c29b1788962fb17b09e4ab8fa615430dcb553f451066acd63881939627ae9bd9",
        "f2b3d7c334154e6211c2021f190129659dc3151659cd66771d76bc39a995951d", 0),
    ("base", 19): ("f2e8bca7e484cc8a49362e7f2b2919a9e94d89304b38244e65974cdd30089759",
        "06d6b58a0161a279831a13131132cd188e1754153057b42335e2a17fddb023d9", 0),
    ("bernoulli", 1): ("85ce0aee2cb0105224b8d41c23d81455fdc56ba51adf59c6e8fb45a6e4058f8e",
        "982c23c81db0b6defed5e6668a82de5eca5f39703f025e686563247efff9c832", 0),
    ("bernoulli", 7): ("3beb76e4216b109e7d68bad24ee073a6cbdf182b68bc1599c8043950db97da26",
        "fe581b897e77dfd6fde407a77aa4f2758794e0063f9a0c72eb475e7ee2d8b8f2", 0),
    ("bernoulli", 8): ("ed66fe34fe6b9dc5c9527644ccc10c5a77006156c2cc3257e1b159c79154a6fb",
        "6c2270d5d4a42fb46e585dae3b1f60c5300fd15e41b75bd671f0610c8f0f9d6a", 0),
    ("bernoulli", 9): ("1a1338f96526f88ec5dab7604e3612bb2f0ca8e8969d05c06b1199e4f101c075",
        "69be3f93f0b228d5228407a764f1f4344fea00418cd384d7bde2702482f36b2b", 0),
    ("bernoulli", 19): ("75a2eb29a5113f73072e39fd43bb8750d7213bc79857be89704b0e98d24f7856",
        "b79a2aed4677b2c531f59b18ee91f4c14120ee49fbe377088cf18a83a64dc2ed", 0),
    ("phase", 1): ("9397eb869eef662dcd504f52a5f10269485b34f9660155b2cb6dd51d707485b7",
        "24b1f4ef66b650ff816e519b01742ff1753733d36e1b4c3e3b52743168915b1f", 0),
    ("phase", 7): ("b8c66e72a77745e6f1e04a4209705e1b571458fc3a9695f0f9515ba97b8ee727",
        "3601e3e963e0f59cf8d1c1db6a99c5ec8be246469bfdb5c776fc46d044352854", 0),
    ("phase", 8): ("2e628e1e3677a19694daf17ecc0919eb6bb216651a452639533a2985b8da3a5c",
        "98c29b99fb311ece8602b9bce413e58608e7c9793126dad15903d2454efa1fa5", 0),
    ("phase", 9): ("4245b803f0387e38615819a3149343151dade4e8deeeef40e8d7a4ade437c193",
        "8ea8be73e1d0f4f45a4969f1075236cf48cf46346874f40401b870b69b17a7a8", 0),
    ("phase", 19): ("d63a336d7f74c94e0df6ccdbefbd61ec3e390fff869b58d3a5b3a46f9042a711",
        "6e7609f8120f071263ac0ac3a85a6ad0db485c04d203343c43d216379427d576", 0),
    ("degenerate", 1): ("26af3146a363b86c6466e07c27bfea5594e25e7abee0e76a22380b6b9d740a4d",
        "400c52dd5bd0047d64c0582af027b387a7938a64283d0d4f727331140cb6462c", 0),
    ("degenerate", 7): ("becd899ebae80e626a5d348954a62ec65fa4dabfe1be461dbed0e4e52414c20e",
        "2b2c1e888864ca7ef232347a44b07a7faf8467afa98afba8957d1718aedd5423", 3),
    ("degenerate", 8): ("4aed8ba8885e25f32d1f023a71be33dfada928230e5171c8f7c8cf8d0b5a0053",
        "315ee5d4d4bce05593651e08716f84ffd26972c0c5621c8631993b274d7856e5", 3),
    ("degenerate", 9): ("428194b7e08fe4a27c333fb35e5c9512738e51481fb9d4b87a2ecdf492890bd3",
        "f93cd83e9744af0f57071bcc6109922f72298d9cd3265a7f64ce6a0fa5cd95f4", 3),
    ("degenerate", 19): ("fbb8c3e930f0c9111ccc7cdadf51f7e41fa8c7fa8e8000b88a41735bfb1da1a9",
        "c77872025992b845fbd5544098c7c3bf509c31ff1479e735e2436e82377cc8f7", 8),
}


@pytest.mark.parametrize("reps", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("name", list(BLOCK_CFGS))
def test_replicate_rho_bits_do_not_depend_on_blocks_or_workers(name, reps):
    sha_rho, sha_k, failures = PINNED_BLOCK_RUNS[(name, reps)]
    for threads in (1, 2, 3):
        rho_hats, ks, failed = replicate_rho(BLOCK_CFGS[name], reps, 2026, threads=threads)
        assert hashlib.sha256(rho_hats.tobytes()).hexdigest() == sha_rho
        assert hashlib.sha256(ks.tobytes()).hexdigest() == sha_k
        assert (failed, rho_hats.size) == (failures, reps - failures)
    if name == "degenerate" and reps > 1:
        assert failed > 0


@pytest.mark.parametrize("overflow,zero", [(3, 5), (5, 3), (_BLOCK + 1, _BLOCK - 2), (_BLOCK - 2, _BLOCK + 1),
                                           (None, 2 * _BLOCK + 1)])
def test_replicate_rho_raises_the_first_failing_replications_domain_error(monkeypatch, overflow, zero):
    # replication `overflow` gets overflowing curve norms, replication `zero` all-zero curves
    # (a nonpositive top radius); either aborts the run, and the earlier one's error is raised
    draw = simulate._scores

    def faulty_scores(rng, cfg):
        i = rng.bit_generator.seed_seq.spawn_key[-1]
        cx, cy = draw(rng, cfg)
        if i == overflow:
            return cx * 1e200, cy
        return (np.zeros_like(cx), np.zeros_like(cy)) if i == zero else (cx, cy)

    monkeypatch.setattr(simulate, "_scores", faulty_scores)
    cfg = BLOCK_CFGS["degenerate"]
    message = "curve norms overflow" if overflow is not None and overflow < zero else "the top 10 values"
    for threads in (1, 2, 3):
        with pytest.raises(DomainError, match=message):
            replicate_rho(cfg, 3 * _BLOCK, 2026, threads=threads)
