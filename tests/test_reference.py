"""estimate_pipeline and pairwise_matrix against the plain reference pipeline of ``reference.py``.

The pairs are curves whose norms follow the ``tail_sample`` shapes: curve i
of a sample is a scale times one of three fixed random directions, so equal
scales give identical curves, whose norms and radii tie exactly. With ``fire``
each further sample's scales are raised to a higher power (a heavier tail)
and tau = 0, so the transform fires; without it tau = inf. Both sides must
raise the same error type, or give the same k values and transformed flag
and alpha_hat and estimates within 1e-12. A draw whose k rule has best and
runner-up distances within 1e-9 is skipped, since the two sides' last-ulp
differences may pick either.
"""
import numpy as np
from hypothesis import assume, event, given, settings, strategies as st

from ecc import EccError, estimate_pipeline, pairwise_matrix
import reference
from reference import SHAPES, tail_sample

TOL = 1e-12


def curve_samples(shape, n, alpha, seed, J, fire, m):
    """m index-aligned curve samples whose norms follow ``tail_sample(shape, n, alpha, seed)``."""
    rng = np.random.default_rng(seed)
    v = tail_sample(shape, n, alpha, seed)
    which = rng.integers(0, 3, size=n)
    samples = []
    for j in range(m):
        directions = rng.standard_normal((3, J))  # norms of distinct rows do not tie
        scales = v ** (1.0 + j / 2) if fire else v
        samples.append(rng.choice([-1.0, 1.0], size=n)[:, None] * scales[:, None] * directions[which])
    return samples


def _outcome(f, *args, **options):
    try:
        return f(*args, **options)
    except EccError as exc:
        return exc


def _assert_close(got, want, name):
    assert abs(got - want) <= TOL * max(1.0, abs(want)), (name, got, want)


def _assert_matches(got, want):
    """A PipelineReport equals a reference.Reference up to TOL."""
    assert (got.tail_x.k, got.tail_y.k, got.transformed, got.ecc.k) == (
        want.tail_x.k, want.tail_y.k, want.transformed, want.k)
    _assert_close(got.tail_x.alpha_hat, want.tail_x.alpha_hat, "alpha_x")
    _assert_close(got.tail_y.alpha_hat, want.tail_y.alpha_hat, "alpha_y")
    for f in ("sigma_xy", "rho_xy", "gamma_xy"):
        _assert_close(getattr(got.ecc, f), getattr(want, f), f)


cases = dict(
    shape=st.sampled_from(SHAPES), n=st.integers(20, 400), alpha=st.floats(0.5, 5.0),
    seed=st.integers(0, 2**32 - 1), J=st.integers(1, 6), fire=st.booleans(),
    rule=st.sampled_from(["mindist", "ks", "fixed"]), do_center=st.booleans(),
)


def _options(n, fire, rule, do_center):
    k = max(2, n // 10) if rule == "fixed" else None
    return dict(k=k, k_method="mindist" if rule == "fixed" else rule, tau=0.0 if fire else np.inf,
                do_center=do_center)


@settings(max_examples=200, deadline=None)
@given(**cases)
def test_estimate_pipeline_matches_the_reference_pipeline(shape, n, alpha, seed, J, fire, rule, do_center):
    x, y = curve_samples(shape, n, alpha, seed, J, fire, 2)
    options = _options(n, fire, rule, do_center)
    want = _outcome(reference.pipeline, x, y, **options)
    got = _outcome(estimate_pipeline, x, y, **options)
    if isinstance(want, EccError):
        event(f"both raise {type(want).__name__}")
        assert type(got) is type(want), (got, want)
        return
    assume(want.gap > 1e-9)
    assert not isinstance(got, EccError), (got, want)
    event(f"compared, transformed={want.transformed}, tied r_k={len(got.ecc.exceedance_indices) > got.ecc.k}")
    _assert_matches(got, want)


@settings(max_examples=60, deadline=None)
@given(**cases)
def test_pairwise_matrix_matches_the_reference_pipeline(shape, n, alpha, seed, J, fire, rule, do_center):
    samples = curve_samples(shape, n, alpha, seed, J, fire, 3)
    options = _options(n, fire, rule, do_center)
    wants = {(a, b): _outcome(reference.pipeline, samples[a], samples[b], **options)
             for a in range(3) for b in range(a + 1, 3)}
    got = _outcome(pairwise_matrix, samples, return_reports=True, **options)
    errors = [w for w in wants.values() if isinstance(w, EccError)]
    if errors:  # the first failing stage in the library's order raises; it is one of the reference's
        event("both raise")
        assert type(got) in {type(e) for e in errors}, (got, errors)
        return
    assume(min(w.gap for w in wants.values()) > 1e-9)
    assert not isinstance(got, EccError), (got, wants)
    matrix, reports = got
    event(f"compared, transformed pairs={sum(r.transformed for r in reports.values())}")
    for (a, b), want in wants.items():
        _assert_matches(reports[(a, b)], want)
        assert matrix[a, b] == matrix[b, a] == reports[(a, b)].ecc.rho_xy
