"""von Neumann entropy of rho(t) from its exact spectrum, the Skellam
weights e^{-x} I_n(x): :func:`entropy` is a sum over one scaled-I row.  Its
oracle, :func:`dqwalk.validate.ring_entropy`, eigensolves the window of the
exact N-site ring, which shares no Bessel code with this sum."""

from __future__ import annotations

import math
import warnings

import numpy as np

from .bessel import EPS_TAIL_DEFAULT, truncation_order
from .core import ModelParams


def entropy(p: ModelParams, eps_tail: float = EPS_TAIL_DEFAULT) -> float:
    """von Neumann entropy -sum_n w_n ln w_n of the exact spectrum of rho(t).

    The shifted Bessel vectors psi_n(s) = i^s J_{s+n}(t') are orthonormal
    on the lattice (Neumann's addition theorem: sum_s J_{s+n} J_{s+m} =
    delta_nm), and rho(t) = sum_n w_n |psi_n><psi_n| with
    w_n = e^{-x} I_n(x).  The eigenvalues of rho are therefore exactly the
    Skellam(x/2, x/2) weights w_n at every t', and the entropy depends on
    x = r_d t' alone.  It agrees with the eigensolve of the ring window
    (``validate.ring_entropy``) to roundoff, and its limits are

        -x ln x + x (1 + ln 2) + O(x^2 ln x)      for x << 1,
        (1/2) ln(2 pi e x) - 1 / (48 x^2) + ...    for x >> 1,

    so it grows without bound; it does not saturate at ln 2.  The sum runs
    over the orders whose neglected scaled-I tail is below ``eps_tail``,
    using the symmetry w_{-n} = w_n.
    """
    # truncate before the x = 0 shortcut, so a bad eps_tail is rejected there too
    trunc = truncation_order(0.0, p.x, eps_tail)
    if p.x == 0.0:
        return 0.0
    w = trunc.weights[trunc.n_max :]
    w = w[w > 0.0]
    terms = w * np.log(w)
    return float(-(terms[0] + 2.0 * terms[1:].sum()))


def entropy_small_dissipation(p: ModelParams) -> float:
    """Leading small-dissipation law -x ln x, x = r_d t' << 1.

    Expanding the exact spectrum, w_0 = 1 - x + O(x^2) and
    w_{+/-1} = x/2 + O(x^2), gives S = -x ln x + x (1 + ln 2) + O(x^2 ln x).
    The next term is therefore only a factor (1 + ln 2) / |ln x| below the
    leading one: 32% at x = 0.005 and still 9% at x = 1e-8.
    """
    x = p.x
    if x >= 1.0:
        warnings.warn(
            f"small-dissipation law evaluated outside its regime (x = {x})",
            stacklevel=2,
        )
    if x == 0.0:
        return 0.0
    return -x * math.log(x)
