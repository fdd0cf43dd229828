"""Closed-form lattice observables of the dissipative quantum walk.

The walk is a tight-binding particle coupled to a phonon bath, started in
the localized state |0><0|.  Everything is parameterized by the
dimensionless pair (t', r_D): t' is time in units of the hopping rate and
r_D the ratio of dissipation to hopping.  The reduced density matrix is

    <s1|rho|s2> = i^(s1-s2) sum_n J_{s1+n}(t') J_{s2+n}(t') e^{-x} I_n(x)

with x = r_D * t'.  The e^{-2Dt} prefactor is fused into the scaled
modified Bessel factors term by term, so nothing here overflows at large x.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bessel import (
    EPS_TAIL_DEFAULT,
    SeriesTruncation,
    bessel_i_scaled_orders,
    bessel_i_scaled_row,
    bessel_j_orders,
    bessel_j_row,
    check_truncation,
    truncation_order,
)

#: i^m for m = 0..3; indexing by (s1 - s2) % 4 gives the density-matrix
#: phase exactly, with no trigonometric roundoff
I_POWERS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

#: finite-difference step of :func:`moment_via_cf`
CF_STEP = 1e-3


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless walk parameters.

    tprime: time in hopping units, t' = (Omega/hbar) t.
    r_d: dissipation ratio, r_D = 2D / (Omega/hbar).

    The physical diffusion constant D is set by the bath coupling and
    temperature (D grows linearly with k_B T); it enters only through r_D.
    """

    tprime: float
    r_d: float

    def __post_init__(self):
        for name, v in (("tprime", self.tprime), ("r_d", self.r_d)):
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    @property
    def x(self) -> float:
        """Dissipative argument x = r_D * t' (= 2Dt)."""
        return self.r_d * self.tprime

    @classmethod
    def from_physical(cls, omega_over_hbar: float, d_coeff: float, t: float) -> "ModelParams":
        """Build from physical hopping rate Omega/hbar, diffusion D and time t."""
        if omega_over_hbar <= 0:
            raise ValueError(f"omega_over_hbar must be > 0, got {omega_over_hbar}")
        return cls(tprime=omega_over_hbar * t, r_d=2.0 * d_coeff / omega_over_hbar)


def truncation_for(p: ModelParams, eps_tail: float = EPS_TAIL_DEFAULT) -> SeriesTruncation:
    """Truncation order suited to the Bessel sums at these parameters."""
    return truncation_order(p.tprime, p.x, eps_tail)


def density_element(s1: int, s2: int, p: ModelParams, trunc: SeriesTruncation) -> complex:
    """Matrix element <s1|rho(t)|s2> of the reduced density matrix.

    Hermitian by construction: the n-sum is real and the phase i^(s1-s2)
    conjugates under index swap.  Kept as the term-by-term oracle of
    :func:`dqwalk.spectral.build_window` and of the quadrature in
    ``tests/test_fourier.py``.
    """
    check_truncation(trunc, p.tprime, p.x)
    n = trunc.orders()
    j1 = bessel_j_orders(s1 + n, p.tprime)
    j2 = bessel_j_orders(s2 + n, p.tprime)
    return complex(I_POWERS[(s1 - s2) % 4]) * float(np.sum(j1 * j2 * trunc.weights))


def site_correlation(
    s_values: np.ndarray, trunc: SeriesTruncation, row: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``sum_n row(s + n) w_n`` at each site of an integer array, with the
    weights ``w_n = e^{-x} I_n(x)`` of the truncation: one discrete
    correlation of ``row`` over orders s_min - n_max .. s_max + n_max, in
    O(sites + orders) memory."""
    s_values = np.asarray(s_values, dtype=int)
    if s_values.size == 0:
        return np.empty(0)
    s_min, s_max = int(s_values.min()), int(s_values.max())
    m = np.arange(s_min - trunc.n_max, s_max + trunc.n_max + 1)
    return np.correlate(row(m), trunc.weights, "valid")[s_values - s_min]


def probability_profile(
    s_values: np.ndarray, p: ModelParams, trunc: SeriesTruncation
) -> np.ndarray:
    """Probability P_s of finding the walker at each site of an integer array.

    The :func:`site_correlation` of the row J_m(t')^2.  The terms summed are
    those of the diagonal of :func:`density_element`, all non-negative, so
    deep-tail values keep their relative accuracy.
    """
    check_truncation(trunc, p.tprime, p.x)
    return site_correlation(s_values, trunc, lambda m: np.square(bessel_j_orders(m, p.tprime)))


def probability_qw(s: int, tprime: float) -> float:
    """Closed-system (D = 0) site probability, J_s(t')^2; the r_D = 0 oracle
    of :func:`probability_profile` in ``tests/test_core.py``."""
    if tprime < 0:
        raise ValueError(f"tprime must be >= 0, got {tprime}")
    j = bessel_j_orders(np.array([s]), tprime)[0]
    return float(j * j)


def probability_crw(s: int, x: float) -> float:
    """Classical-random-walk site probability e^{-x} I_s(x), x = 2Dt; the
    t' -> 0 oracle of :func:`probability_profile` in ``tests/test_core.py``."""
    return float(bessel_i_scaled_orders(np.array([s]), x)[0])


def purity(p: ModelParams) -> float:
    """Tr rho^2 = e^{-4Dt} I_0(4Dt), evaluated in scaled form."""
    return float(bessel_i_scaled_row(0, 2.0 * p.x)[0])


def characteristic_function(xi: float, p: ModelParams) -> float:
    """G(xi) = e^{-x (1 - cos xi)} J_0(2 t' sin(xi/2)).

    Real-valued: the localized initial state makes the site distribution
    reflection-symmetric, so the sine part of the lattice Fourier sum
    cancels.  G(0) = 1 is the trace.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    # J_0 is even, so its row is taken at |2 t' sin(xi/2)|
    return float(
        math.exp(-p.x * (1.0 - math.cos(xi)))
        * bessel_j_row(0, abs(2.0 * p.tprime * math.sin(0.5 * xi)))[0]
    )


def variance(p: ModelParams) -> float:
    """Position variance t'^2 / 2 + r_D t': ballistic term plus diffusion."""
    return 0.5 * p.tprime * p.tprime + p.r_d * p.tprime


def moment_via_cf(order: int, p: ModelParams) -> float:
    """Position moment from derivatives of the characteristic function.

    Central finite differences at xi = 0 with steps CF_STEP and CF_STEP/2
    and one Richardson refinement.
    The m-th moment carries a 1/i^m factor; G is real and even, so the
    first moment is zero by symmetry and the second is -G''(0).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")

    def deriv(step: float) -> float:
        if order == 1:
            return (characteristic_function(step, p) - characteristic_function(-step, p)) / (
                2.0 * step
            )
        return (
            characteristic_function(step, p)
            - 2.0 * characteristic_function(0.0, p)
            + characteristic_function(-step, p)
        ) / (step * step)

    refined = (4.0 * deriv(0.5 * CF_STEP) - deriv(CF_STEP)) / 3.0
    return refined if order == 1 else -refined


def anderson_velocity() -> float:
    """Spread rate sqrt(variance) / t' = 1/sqrt(2) sites per unit t' of the
    dissipation-free walk.

    This is the growth rate of the standard deviation, not the speed of the
    ballistic front: the peaks of J_s(t')^2 sit near |s| = t' (s = +/-29 at
    t' = 31.8, 0.91 per unit t'), so 1/sqrt(2) bounds the front speed from
    below.
    """
    return 1.0 / math.sqrt(2.0)
