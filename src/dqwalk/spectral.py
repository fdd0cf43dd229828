"""Finite-window density matrix, its spectrum, and von Neumann entropy.

The spectrum of rho(t) is exactly the Skellam weights e^{-x} I_n(x), so
:func:`entropy` is a sum over one scaled-I row.  The windowed eigensolve
is kept as its oracle: the walk lives on an infinite lattice but stays
inside a ballistic light cone, so a finite Hermitian window [-L, L]
captures all but MASS_TOL of the probability.  The window is
diagonalized as the Hermitian matrix it is, and eigenvalues down to
-EPS_CLAMP are clamped to zero as roundoff.  Both tolerances are
constants, not arguments: the oracle has one setting.
:class:`DensityWindow` keeps the mass left outside it and
:class:`SpectrumResult` the number of clamped eigenvalues.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import EPS_TAIL_DEFAULT, bessel_j_orders, truncation_order
from .core import I_POWERS, ModelParams, probability_profile, truncation_for
from .exceptions import NumericalError

#: smallest window half-width; keeps degenerate parameter points cheap but
#: non-trivial for spectral checks
MIN_HALF_WIDTH = 20

#: most probability mass a window may leave outside it
MASS_TOL = 1e-12

#: most negative eigenvalue clamped to zero as roundoff
EPS_CLAMP = 1e-12


@dataclass(frozen=True)
class DensityWindow:
    """Hermitian slice of rho(t) on sites [-half_width, half_width].

    ``truncated_mass`` is the probability left outside the window; the
    trace deviates from one by at most that plus roundoff.
    """

    half_width: int
    elements: np.ndarray  # complex, (2L+1) x (2L+1), index = site + L
    truncated_mass: float

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def trace(self) -> float:
        return float(np.trace(self.elements).real)


@dataclass(frozen=True)
class SpectrumResult:
    """Clamped, renormalized eigenvalues of a density window, descending."""

    eigenvalues: np.ndarray
    clamped_count: int


def window_half_width(p: ModelParams) -> tuple[int, float]:
    """Smallest half-width (>= MIN_HALF_WIDTH) whose truncated probability
    mass is below MASS_TOL.

    Starts from a ballistic-front overestimate and shrinks; grows instead
    if the estimate was somehow too small.
    """
    guess = math.ceil(
        p.tprime + 6.0 * math.sqrt(p.x) + 10.0 * p.tprime ** (1.0 / 3.0) + 20.0
    )
    trunc = truncation_for(p)
    while True:
        probs = probability_profile(np.arange(0, guess + 1), p, trunc)  # P_{-s} = P_s
        inside = np.concatenate(([probs[0]], probs[0] + 2.0 * np.cumsum(probs[1:])))
        deficits = 1.0 - inside  # deficits[L] = mass outside [-L, L]
        ok = np.flatnonzero(deficits < MASS_TOL)
        if ok.size:
            half = max(MIN_HALF_WIDTH, int(ok[0]))
            return half, max(float(deficits[half]), 0.0)
        guess = int(guess * 1.25) + 10


def build_window(p: ModelParams) -> DensityWindow:
    """Materialize rho(t) on the mass-complete window.

    The fill is one matrix product: with A[s, n] = J_{s+n}(t') and the
    scaled-I weights on the inner index, the real part of rho with its
    phase stripped is A diag(I~) A^T; the i^(s1-s2) phase is applied
    afterwards.
    """
    half, lost = window_half_width(p)
    trunc = truncation_for(p)
    n = trunc.orders()
    s = np.arange(-half, half + 1)
    a = bessel_j_orders(s[:, None] + n[None, :], p.tprime)
    real_part = (a * trunc.weights) @ a.T
    real_part = 0.5 * (real_part + real_part.T)  # exact Hermiticity
    phase = I_POWERS[(s[:, None] - s[None, :]) % 4]
    return DensityWindow(half_width=half, elements=phase * real_part, truncated_mass=lost)


def eigen_spectrum(window: DensityWindow) -> SpectrumResult:
    """Eigenvalues of the window, clamped and renormalized to sum 1.

    Roundoff eigenvalues in [-EPS_CLAMP, 0) are set to zero; anything more
    negative indicates a broken window and raises.
    """
    try:
        vals = np.linalg.eigvalsh(window.elements)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if vals[0] < -EPS_CLAMP:
        raise NumericalError(
            f"eigenvalue {vals[0]:.3e} below clamp -{EPS_CLAMP:.1e}"
        )
    clamped = int(np.count_nonzero(vals < 0.0))
    vals = np.clip(vals, 0.0, None)
    vals = vals[::-1] / vals.sum()
    return SpectrumResult(eigenvalues=vals, clamped_count=clamped)


def window_entropy(p: ModelParams) -> float:
    """von Neumann entropy -sum lambda ln lambda of the windowed rho(t).

    The eigensolve oracle for :func:`entropy`, compared with it by
    ``validate --level full`` and the tests.  Zero for a pure state
    (r_d = 0 or t' = 0); bounded by ln(2L+1).  The 0 ln 0 limit is taken
    as 0.
    """
    spectrum = eigen_spectrum(build_window(p))
    vals = spectrum.eigenvalues
    vals = vals[vals > 0.0]
    return float(-(vals * np.log(vals)).sum())


def entropy(p: ModelParams, eps_tail: float = EPS_TAIL_DEFAULT) -> float:
    """von Neumann entropy -sum_n w_n ln w_n of the exact spectrum of rho(t).

    The shifted Bessel vectors psi_n(s) = i^s J_{s+n}(t') are orthonormal
    on the lattice (Neumann's addition theorem: sum_s J_{s+n} J_{s+m} =
    delta_nm), and rho(t) = sum_n w_n |psi_n><psi_n| with
    w_n = e^{-x} I_n(x).  The eigenvalues of rho are therefore exactly the
    Skellam(x/2, x/2) weights w_n at every t', and the entropy depends on
    x = r_d t' alone.  It agrees with the windowed eigensolve
    :func:`window_entropy` to roundoff, and its limits are

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
