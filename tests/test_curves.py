import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecc import (
    GridMismatchError,
    center,
    inner_product,
    inner_products,
    norm,
    norms,
    pair_radii,
)
from ecc.curves import _BLOCK_VALUES, _centered_norms, _norms, _rescaled, _row_blocks
from ecc.errors import DomainError
from ecc.simulate import basis

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def curve_pairs(min_j=1, max_j=12):
    return st.integers(min_value=min_j, max_value=max_j).flatmap(
        lambda j: st.tuples(
            st.lists(finite_floats, min_size=j, max_size=j),
            st.lists(finite_floats, min_size=j, max_size=j),
        )
    )


def test_inner_product_constant_curves():
    assert inner_product([1.0, 1.0], [2.0, 2.0]) == pytest.approx(2.0)


def test_inner_product_orthogonal():
    assert inner_product([1.0, -1.0], [1.0, 1.0]) == pytest.approx(0.0)


def test_inner_product_hand_sum():
    # (9 + 16) / 2
    assert inner_product([3.0, 4.0], [3.0, 4.0]) == pytest.approx(12.5, abs=1e-12)


def test_inner_product_rejects_grid_mismatch():
    with pytest.raises(GridMismatchError):
        inner_product([1.0, 2.0], [1.0, 2.0, 3.0])


def test_norm_zero_curve():
    assert norm(np.zeros(7)) == 0.0


def test_norm_hand_value():
    assert norm([3.0, 4.0]) == pytest.approx(np.sqrt(12.5), abs=1e-12)


def test_basis_element_has_unit_norm_at_moderate_grid():
    assert norm(basis(1, 100)) == pytest.approx(1.0, abs=0.02)


def test_center_two_curves():
    out = center([[0.0, 0.0], [2.0, 2.0]])
    assert np.allclose(out, [[-1.0, -1.0], [1.0, 1.0]])


def test_center_single_curve_gives_zero():
    out = center([[5.0, -3.0, 2.0]])
    assert np.allclose(out, 0.0)


def test_center_hand_mean():
    out = center([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(out, [[-2.0, -2.0], [0.0, 0.0], [2.0, 2.0]])


def test_center_idempotent():
    rng = np.random.default_rng(3)
    s = rng.normal(size=(8, 5))
    once = center(s)
    assert np.allclose(center(once), once, atol=1e-12)


def test_pair_radii_takes_the_larger_norm():
    x = [[3.0], [0.0]]
    y = [[1.0], [2.0]]
    assert np.allclose(pair_radii(x, y), [3.0, 2.0])


def test_pair_radii_scalar_fixture():
    x = [[3.0], [1.0], [0.5]]
    y = [[3.0], [-1.0], [0.5]]
    assert np.allclose(pair_radii(x, y), [3.0, 1.0, 0.5])


def test_pair_radii_scales_linearly():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 4))
    y = rng.normal(size=(6, 4))
    assert np.allclose(pair_radii(2.5 * x, 2.5 * y), 2.5 * pair_radii(x, y), rtol=1e-12)


def test_pair_radii_rejects_misaligned_samples():
    with pytest.raises(GridMismatchError):
        pair_radii(np.zeros((3, 4)), np.zeros((4, 4)))
    with pytest.raises(GridMismatchError):
        pair_radii(np.zeros((3, 4)), np.zeros((3, 5)))


def test_non_finite_values_rejected():
    with pytest.raises(DomainError):
        norm([1.0, np.inf])
    with pytest.raises(DomainError):
        center([[1.0, np.nan]])


def test_overflowing_norms_raise_without_warning():
    s = np.full((3, 4), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op in (norms, lambda a: pair_radii(a, a)):
            with pytest.raises(DomainError, match="^curve norms overflow$"):
                op(s)


@given(curve_pairs())
def test_inner_product_symmetric(pair):
    x, y = pair
    assert inner_product(x, y) == inner_product(y, x)


@given(curve_pairs())
def test_cauchy_schwarz(pair):
    x, y = pair
    bound = norm(x) * norm(y)
    assert abs(inner_product(x, y)) <= bound + 1e-9 * max(bound, 1.0)


@given(st.lists(finite_floats, min_size=1, max_size=12))
def test_norm_squares_to_inner_product(values):
    n2 = norm(values) ** 2
    ip = inner_product(values, values)
    assert n2 == pytest.approx(ip, rel=1e-12, abs=1e-300)


def test_batched_ops_match_scalar_ops():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 7))
    y = rng.normal(size=(10, 7))
    assert np.allclose(inner_products(x, y), [inner_product(a, b) for a, b in zip(x, y)])
    assert np.allclose(norms(x), [norm(a) for a in x])


def test_long_grid_accumulation_is_stable():
    # constant curve on a very long grid: the mean must come out exact
    J = 1_000_000
    x = np.full(J, 1e-3)
    assert inner_product(x, x) == pytest.approx(1e-6, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 400), st.integers(0, 2**32 - 1))
@example(3, _BLOCK_VALUES + 1, 0)  # one row per block
@example(2 * _BLOCK_VALUES // 100 + 7, 100, 1)  # several blocks and a short last one
@example(40, 1, 2)
def test_blocked_norms_equal_the_whole_array_expressions_bit_for_bit(n, J, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n, J)) * 10.0 ** rng.uniform(-5, 5, size=(n, 1)) + rng.standard_normal(J)
    factors = np.where(rng.random(n) < 0.1, 0.0, rng.pareto(1.5, n))
    centered = center(arr)
    assert _centered_norms(arr, None).tobytes() == _norms(arr).tobytes()
    assert _centered_norms(arr, arr.mean(axis=0)).tobytes() == _norms(centered).tobytes()
    assert (_centered_norms(arr, arr.mean(axis=0), factors).tobytes()
            == _norms(_rescaled(centered, factors)).tobytes())


@pytest.mark.parametrize("big_row", [0, -1])
def test_blocked_norms_raise_on_overflow_in_any_block_without_warning(big_row):
    arr = np.ones((3 * _BLOCK_VALUES // 10, 10))
    assert len(_row_blocks(*arr.shape)) > 2
    arr[big_row] = 1e160
    factors = np.ones(arr.shape[0])
    factors[big_row] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^curve norms overflow$"):
            _centered_norms(arr, None)
        with pytest.raises(DomainError, match="^curve norms overflow$"):
            _centered_norms(arr, arr.mean(axis=0))
        with pytest.raises(DomainError, match="^transformed curves overflow$"):
            _centered_norms(arr, None, factors)
