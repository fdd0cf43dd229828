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
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bessel import (
    EPS_TAIL_DEFAULT,
    SeriesTruncation,
    bessel_i_scaled_orders,
    bessel_j_orders,
    check_truncation,
    truncation_order,
)

#: i^m for m = 0..3; indexing by (s1 - s2) % 4 gives the density-matrix
#: phase exactly, with no trigonometric roundoff
I_POWERS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


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


def i_power(m: int) -> complex:
    """Exact i^m from the residue of m mod 4."""
    return complex(I_POWERS[m % 4])


def density_element(s1: int, s2: int, p: ModelParams, trunc: SeriesTruncation) -> complex:
    """Matrix element <s1|rho(t)|s2> of the reduced density matrix.

    Hermitian by construction: the n-sum is real and the phase i^(s1-s2)
    conjugates under index swap.
    """
    check_truncation(trunc, p.tprime, p.x)
    if p.tprime == 0.0 and p.r_d == 0.0:
        # degenerate initial state, no series needed
        return 1.0 + 0.0j if s1 == 0 and s2 == 0 else 0.0 + 0.0j
    n = trunc.orders()
    j1 = bessel_j_orders(s1 + n, p.tprime)
    j2 = bessel_j_orders(s2 + n, p.tprime)
    i_row = bessel_i_scaled_orders(n, p.x)
    return i_power(s1 - s2) * float(np.sum(j1 * j2 * i_row))


def probability(s: int, p: ModelParams, trunc: SeriesTruncation) -> float:
    """Probability of finding the walker at site s."""
    return float(probability_profile(np.array([s]), p, trunc)[0])


def probability_profile(
    s_values: np.ndarray, p: ModelParams, trunc: SeriesTruncation
) -> np.ndarray:
    """Vectorized :func:`probability` over an integer site array.

    The series is evaluated as one discrete correlation: with the row
    ``J_m(t')^2`` over orders m = s_min - n_max .. s_max + n_max and the
    weights ``w_n = e^{-x} I_n(x)``, ``P_s = sum_n J_{s+n}^2 w_n`` is entry
    s - s_min of ``correlate(row, w, "valid")``.  The terms summed are those
    of :func:`probability`, all non-negative, so deep-tail values keep their
    relative accuracy; memory is O(sites + orders).
    """
    check_truncation(trunc, p.tprime, p.x)
    s_values = np.asarray(s_values, dtype=int)
    if s_values.size == 0:
        return np.empty(0)
    s_min, s_max = int(s_values.min()), int(s_values.max())
    m = np.arange(s_min - trunc.n_max, s_max + trunc.n_max + 1)
    j = bessel_j_orders(m, p.tprime)
    i_row = bessel_i_scaled_orders(trunc.orders(), p.x)
    return np.correlate(j * j, i_row, "valid")[s_values - s_min]


def probability_qw(s: int, tprime: float) -> float:
    """Closed-system (D = 0) site probability, J_s(t')^2."""
    if tprime < 0:
        raise ValueError(f"tprime must be >= 0, got {tprime}")
    j = bessel_j_orders(np.array([s]), tprime)[0]
    return float(j * j)


def probability_crw(s: int, x: float) -> float:
    """Classical-random-walk site probability e^{-x} I_s(x), x = 2Dt."""
    return float(bessel_i_scaled_orders(np.array([s]), x)[0])


def purity(p: ModelParams) -> float:
    """Tr rho^2 = e^{-4Dt} I_0(4Dt), evaluated in scaled form."""
    return float(special.ive(0, 2.0 * p.x))


def characteristic_function(xi: float, p: ModelParams) -> float:
    """G(xi) = e^{-x (1 - cos xi)} J_0(2 t' sin(xi/2)).

    Real-valued: the localized initial state makes the site distribution
    reflection-symmetric, so the sine part of the lattice Fourier sum
    cancels.  G(0) = 1 is the trace.
    """
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    return float(
        math.exp(-p.x * (1.0 - math.cos(xi)))
        * special.jv(0, 2.0 * p.tprime * math.sin(0.5 * xi))
    )


def variance(p: ModelParams) -> float:
    """Position variance t'^2 / 2 + r_D t': ballistic term plus diffusion."""
    return 0.5 * p.tprime * p.tprime + p.r_d * p.tprime


def moment_via_cf(order: int, p: ModelParams, h: float = 1e-3) -> float:
    """Position moment from derivatives of the characteristic function.

    Central finite differences at xi = 0 with one Richardson refinement.
    The m-th moment carries a 1/i^m factor; G is real and even, so the
    first moment is zero by symmetry and the second is -G''(0).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not 0.0 < h <= 0.1:
        raise ValueError(f"h must be in (0, 0.1], got {h}")

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

    refined = (4.0 * deriv(0.5 * h) - deriv(h)) / 3.0
    return refined if order == 1 else -refined


def anderson_velocity() -> float:
    """Ballistic front speed of the wave packet, 1/sqrt(2) sites per unit t'."""
    return 1.0 / math.sqrt(2.0)
