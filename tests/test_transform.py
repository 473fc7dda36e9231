import numpy as np
import pytest

from ecc import DomainError, norms, power_transform


def test_identity_when_indexes_match():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(6, 5))
    assert np.allclose(power_transform(s, 3.0, 3.0), s, atol=1e-14)


def test_norm_law_hand_case():
    # ||x|| = 4, 2 -> 4 gives output norm 4^(1/2) = 2 in the same direction
    x = np.array([[4.0, 0.0, 0.0]]) * np.sqrt(3.0)  # norm 4 under the 1/J weight
    assert norms(x)[0] == pytest.approx(4.0)
    out = power_transform(x, 2.0, 4.0)
    assert norms(out)[0] == pytest.approx(2.0, rel=1e-12)
    assert np.allclose(out / norms(out)[0], x / 4.0, atol=1e-12)


def test_zero_curve_maps_to_zero():
    s = np.array([[0.0, 0.0], [3.0, 4.0]])
    out = power_transform(s, 2.0, 5.0)
    assert np.all(out[0] == 0.0)
    assert np.all(np.isfinite(out))


def test_nonpositive_alpha_rejected():
    s = np.ones((2, 2))
    for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="^alpha_source must be"):
            power_transform(s, bad, 3.0)
        with pytest.raises(DomainError, match="^alpha_target must be"):
            power_transform(s, 3.0, bad)


def test_direction_preserved():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(40, 9)) * np.exp(rng.normal(size=(40, 1)))
    out = power_transform(s, 2.5, 4.0)
    r_in, r_out = norms(s), norms(out)
    assert np.allclose(out / r_out[:, None], s / r_in[:, None], atol=1e-10)


def test_norm_law_randomized():
    rng = np.random.default_rng(8)
    s = rng.normal(size=(50, 6)) * np.exp(rng.normal(size=(50, 1)))
    for a_src, a_tgt in [(2.0, 3.0), (4.5, 3.0), (3.3, 7.0)]:
        out = power_transform(s, a_src, a_tgt)
        assert np.allclose(norms(out), norms(s) ** (a_src / a_tgt), rtol=1e-10)


def test_composition():
    rng = np.random.default_rng(9)
    s = rng.normal(size=(30, 5)) * np.exp(rng.normal(size=(30, 1)))
    via = power_transform(power_transform(s, 2.0, 3.5), 3.5, 5.0)
    direct = power_transform(s, 2.0, 5.0)
    assert np.allclose(via, direct, rtol=1e-10, atol=1e-12)


def test_pareto_tail_law():
    # exact Pareto(2) norms become exact Pareto(4) norms: compare quantiles
    rng = np.random.default_rng(10)
    n = 100_000
    u = 1.0 - rng.random(n)
    target_norms = u ** (-1.0 / 2.0)
    directions = rng.normal(size=(n, 4))
    directions /= norms(directions)[:, None]
    s = directions * target_norms[:, None]
    out = power_transform(s, 2.0, 4.0)
    r = norms(out)
    # theoretical Pareto(4) quantiles at a few probability levels
    for p in (0.5, 0.9, 0.99):
        expected = (1.0 - p) ** (-1.0 / 4.0)
        assert np.quantile(r, p) == pytest.approx(expected, rel=0.02)
    assert r.min() >= 1.0 - 1e-9


def test_overflowing_transform_raises_without_warning():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(50, 20))
    s[0] *= 1e150
    with pytest.raises(DomainError, match="^transformed curves overflow$"):
        power_transform(s, 3.0, 1.2)  # factor norm^1.5 is finite, the products are not
    with pytest.raises(DomainError, match="^power transform factors overflow$"):
        power_transform(s, 3.0, 0.5)
