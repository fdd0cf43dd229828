"""Wigner quasi-probability of the walk on (site, quasi-momentum) phase space.

The closed form is

    W(s, k, t) = (1/2pi) sum_n J_{2s+2n}(2 t' sin(k/2)) e^{-x} I_n(x)

with k in the first Brillouin zone [-pi, pi].  Negative values flag quantum
behavior.  The threshold found here by bisection is the dissipation ratio
at which W(0, pi) changes sign at one probe time t*; W can still dip
below zero at other times above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import SeriesTruncation, bessel_j_orders, check_truncation
from .core import ModelParams, site_correlation, truncation_for
from .exceptions import BracketError, NumericalError, WindowTooSmallError

TWO_PI = 2.0 * math.pi

#: default number of closed, uniform k nodes on [-pi, pi]
K_NODES_DEFAULT = 256

#: defaults of :func:`critical_rd`: probe time t*, r_D bracket and tolerance
T_STAR_DEFAULT = 1.9
RD_LO_DEFAULT = 0.1
RD_HI_DEFAULT = 2.0
RD_TOL_DEFAULT = 1e-4


@dataclass(frozen=True)
class WignerGrid:
    """Real Wigner samples over a rectangular (site, k-node) grid."""

    s_min: int
    s_max: int
    k_nodes: np.ndarray
    values: np.ndarray  # shape (n_sites, n_k)

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.s_min, self.s_max + 1)


def k_grid(n_nodes: int = K_NODES_DEFAULT) -> np.ndarray:
    """Closed uniform momentum grid on [-pi, pi]."""
    if n_nodes < 2:
        raise ValueError(f"need at least 2 k nodes, got {n_nodes}")
    return np.linspace(-math.pi, math.pi, n_nodes)


def _check_k(k: float) -> None:
    if not -math.pi <= k <= math.pi:
        raise ValueError(f"k must lie in [-pi, pi], got {k}")


def wigner_row(
    s_values: np.ndarray, k: float, p: ModelParams, trunc: SeriesTruncation
) -> np.ndarray:
    """W(s, k) for an array of sites at one momentum node.

    Evaluated, like :func:`dqwalk.core.probability_profile`, as the
    :func:`dqwalk.core.site_correlation` of one Bessel row, here J_{2m}(z)
    with z = 2 t' sin(k/2).
    """
    _check_k(k)
    check_truncation(trunc, p.tprime, p.x)
    # orders 2s+2n are even, so J of the (possibly negative) argument
    # 2 t' sin(k/2) equals J of its absolute value
    z = abs(2.0 * p.tprime * math.sin(0.5 * k))
    return site_correlation(s_values, trunc, lambda m: bessel_j_orders(2 * m, z)) / TWO_PI


def wigner_value(s: int, k: float, p: ModelParams, trunc: SeriesTruncation) -> float:
    """Wigner function at a single phase-space point; may be negative."""
    return float(wigner_row(np.array([s]), k, p, trunc)[0])


def wigner_from_density(s: int, k: float, window) -> float:
    """Wigner value from stored density elements via the defining sum

    (1/2pi) sum_{s'} <s+s'|rho|s-s'> e^{i k s'}.

    The imaginary part must cancel (Hermiticity plus reflection symmetry);
    it is checked against 1e-10 and discarded.  On a ring window
    (:func:`dqwalk.fourier.ring_window`) it is the Bessel-free oracle of
    :func:`wigner_grid` in ``validate``, of the tests and of the benchmark.

    Only the pairs with both sites inside the window are summed.  If the
    window leaves out at most eps of the probability, then, as
    |rho(a, b)| <= sqrt(P_a P_b) and each dropped pair has a site outside,
    Cauchy-Schwarz bounds the dropped pairs by sqrt(eps)/pi.  If every
    dropped pair has both sites outside a [-L, L] that leaves out at most
    eps, the bound is eps/(2 pi); on a window of half-width H that holds
    for |s| <= (H - L)/2.  A ring window adds at most its ``image_bound``
    per summed term.
    """
    _check_k(k)
    half = window.half_width
    if abs(s) > half:
        raise WindowTooSmallError(
            f"site {s} outside window half-width {half}"
        )
    reach = half - abs(s)
    sp = np.arange(-reach, reach + 1)
    rows = (s + sp) + half
    cols = (s - sp) + half
    elems = window.elements[rows, cols]
    val = complex(np.sum(elems * np.exp(1j * k * sp))) / TWO_PI
    if abs(val.imag) > 1e-10:
        raise NumericalError(
            f"Wigner defining sum has imaginary residue {val.imag:.3e}"
        )
    return val.real


def wigner_grid(
    s_min: int, s_max: int, p: ModelParams, k_nodes: np.ndarray, trunc: SeriesTruncation
) -> WignerGrid:
    """Fill a full (site, k-node) grid of Wigner values."""
    if s_max < s_min:
        raise ValueError(f"empty site range [{s_min}, {s_max}]")
    k_nodes = np.asarray(k_nodes, dtype=float)
    sites = np.arange(s_min, s_max + 1)
    values = np.empty((sites.size, k_nodes.size))
    for j, k in enumerate(k_nodes):
        values[:, j] = wigner_row(sites, float(k), p, trunc)
    return WignerGrid(s_min=s_min, s_max=s_max, k_nodes=k_nodes, values=values)


def position_marginal(grid: WignerGrid) -> np.ndarray:
    """k-integral of each site row (trapezoid over the closed k grid);
    recovers the site probabilities."""
    return np.trapezoid(grid.values, grid.k_nodes, axis=1)


def momentum_marginal(grid: WignerGrid) -> np.ndarray:
    """Site sum at each k node; identically 1/2pi for a wide enough grid."""
    return grid.values.sum(axis=0)


def total_mass(grid: WignerGrid) -> float:
    """Phase-space integral of W; equals Tr rho = 1."""
    return float(np.trapezoid(momentum_marginal(grid), grid.k_nodes))


def min_wigner_over_time(r_d: float, t_grid: np.ndarray) -> tuple[float, float]:
    """Grid minimum of W(0, pi, t') over a time grid.

    Used to locate the first negativity dip of the quantum regime; for
    r_d = 0 the minimizer sits at the first extremum of J_0(2t').
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly increasing")
    vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        p = ModelParams(tprime=float(t), r_d=r_d)
        vals[i] = wigner_value(0, math.pi, p, truncation_for(p))
    i_min = int(np.argmin(vals))
    return float(t_grid[i_min]), float(vals[i_min])


def critical_rd(
    t_star: float = T_STAR_DEFAULT,
    lo: float = RD_LO_DEFAULT,
    hi: float = RD_HI_DEFAULT,
    tol: float = RD_TOL_DEFAULT,
) -> float:
    """Dissipation threshold where W(0, pi, t_star) changes sign.

    Bisection on r_d; below the root W(0, pi, t_star) is negative (quantum
    correlations dominate), above it that one value is nonnegative.  It is
    not a bound over all times: at the default root 0.50197 the minimum of
    W(0, pi, t') over t' in [0.05, 6] is -9.06e-4, at t' = 2.14.  With the
    defaults the root is 0.52 +/- 0.02.  Bisection ends at ``tol`` or once
    no float lies between lo and hi.
    """
    if not 0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got ({lo}, {hi})")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    def probe(r: float) -> float:
        p = ModelParams(tprime=t_star, r_d=r)
        return wigner_value(0, math.pi, p, truncation_for(p))

    f_lo, f_hi = probe(lo), probe(hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f_lo:.3e}, f(hi)={f_hi:.3e}"
        )
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if probe(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
