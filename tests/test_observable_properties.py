"""Property tests of the observables over t' <= 1e3 and r_D <= 10 (x <= 1e4).

Each identity is exact for the infinite series, so what is checked is the
truncation, the window and the roundoff, not a frozen number.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dqwalk.core import ModelParams, probability_profile, truncation_for, variance
from dqwalk.spectral import entropy, window_half_width
from dqwalk.wigner import wigner_row

TPRIME = st.floats(min_value=0.0, max_value=1e3)
R_D = st.floats(min_value=0.0, max_value=10.0)
K = st.floats(min_value=0.0, max_value=math.pi)


def window(p):
    """Sites of the mass-complete window and the truncation for ``p``."""
    half, _ = window_half_width(p)
    return np.arange(-half, half + 1), truncation_for(p)


@settings(max_examples=40, deadline=None)
@given(TPRIME, R_D)
def test_profile_is_a_symmetric_distribution_with_the_exact_variance(tprime, r_d):
    p = ModelParams(tprime, r_d)
    sites, trunc = window(p)
    probs = probability_profile(sites, p, trunc)
    assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) < 1e-10
    np.testing.assert_allclose(probs, probs[::-1], rtol=1e-14, atol=0.0)
    # sum_s s^2 P_s = t'^2/2 + r_D t'; below 1e-300 the squares are
    # subnormal and carry no relative precision
    var = variance(p)
    assert abs(float((sites * sites * probs).sum()) - var) <= 1e-9 * var + 1e-300


@settings(max_examples=20, deadline=None)
@given(TPRIME, R_D, K)
def test_wigner_row_sums_to_uniform_momentum_density_and_is_even(tprime, r_d, k):
    p = ModelParams(tprime, r_d)
    sites, trunc = window(p)
    row = wigner_row(sites, k, p, trunc)
    assert abs(row.sum() - 1.0 / (2.0 * math.pi)) < 1e-10
    np.testing.assert_allclose(row, row[::-1], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(wigner_row(sites, -k, p, trunc), row, rtol=0.0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(TPRIME, R_D, TPRIME, R_D)
def test_entropy_is_finite_monotone_in_x_and_below_the_variance_bound(t1, r1, t2, r2):
    # an integer variable of variance x has entropy at most
    # (1/2) ln(2 pi e (x + 1/12)); the spectrum of rho is Skellam, variance x
    (x1, s1), (x2, s2) = sorted(
        (p.x, entropy(p)) for p in (ModelParams(t1, r1), ModelParams(t2, r2))
    )
    for x, s in ((x1, s1), (x2, s2)):
        assert math.isfinite(s) and 0.0 <= s
        assert s <= 0.5 * math.log(2.0 * math.pi * math.e * (x + 1.0 / 12.0))
    assert s2 >= s1 - 1e-13 * max(s1, 1.0)
