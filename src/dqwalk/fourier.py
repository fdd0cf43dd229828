"""The density matrix of the N-site ring, and a bound on its gap to the line.

In momentum space <k1|rho|k2> picks up exp(t' F(k1, k2)), F = i (cos k1 -
cos k2) + r_D (cos(k1 - k2) - 1).  The periodic trapezoid rule with N nodes
per axis for the way back is the exact density matrix of the N-site ring,
rho_N(s1, s2) = sum_{a,b} rho(s1 + aN, s2 + bN), computed here with one 2-D
FFT and no Bessel function.  As |rho(u, v)| <= sqrt(P_u P_v),

    |rho_N - rho|(s1, s2) <= (sum_a sqrt P_{s1+aN})(sum_b sqrt P_{s2+bN}) - sqrt(P_s1 P_s2).

P_s = sum_n J_{s+n}(t')^2 e^{-x} I_n(x) is the law of M - N, M distributed
as J_m(t')^2 and N as the Skellam weights.  Graf's addition theorem (DLMF
10.23.7 at imaginary angle) with I_0(z) <= e^z and the generating function
of I_n (DLMF 10.35.1) bound its moment generating function; with Markov's
inequality, for every theta > 0 and sh = sinh(theta/2),

    sum_s P_s e^{theta s} = I_0(2 t' sh) e^{2 x sh^2} <= Phi = e^{2 t' sh + 2 x sh^2},
    P_s <= Phi e^{-theta |s|},    sum_{|s|>L} P_s <= 2 Phi e^{-theta (L+1)},
    G(m) = sum_{k>=0} sqrt P_{m+kN} <= sqrt(Phi) e^{-theta m/2} / (1 - e^{-theta N/2}).

At t' = 0, theta = asinh(L/x) gives back the Skellam bound of ``bessel.py``.
Each bound is minimized over a fixed theta grid.  With u >= sqrt P_s and
A >= sum_{a != 0} sqrt P_{s+aN} = G(N + s) + G(N - s), a block's gap is at
most A (2u + A), u at its site nearest 0 and A = G(N + nearest) + G(N -
farthest), as both bounds fall with |s|.  The tail bound sizes the
mass-complete window (:func:`half_width`), the image bound the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .exceptions import QuadratureLimitError

NODES_DEFAULT = 256

#: most nodes per axis: the propagator matrix then holds 64 MB; the
#: benchmark's output checks use 1024
MAX_NODES = 2048

#: most probability the tail bound lets a mass-complete window leave out
MASS_TOL = 1e-12

#: largest image bound of a block: a tenth of the tightest bound of a ring check
IMAGE_TOL = 1e-13

#: Chernoff parameters theta over which every bound is minimized, 1e-4 to 64;
#: a numpy operation here would add 0.5 MB to the peak memory of every command
_THETA = np.array([1e-4 * 6.4e5 ** (k / 399) for k in range(400)])


@dataclass(frozen=True)
class QuadratureSpec:
    """The ring of ``nodes_per_axis`` sites: its momenta, a uniform grid
    on [-pi, pi) with the duplicate endpoint excluded."""

    nodes_per_axis: int = NODES_DEFAULT

    def __post_init__(self):
        n = self.nodes_per_axis
        if not (16 <= n <= MAX_NODES and n % 2 == 0):
            raise ValueError(f"nodes_per_axis must be even and in [16, {MAX_NODES}], got {n}")

    def nodes(self) -> np.ndarray:
        return -math.pi + 2.0 * math.pi * np.arange(self.nodes_per_axis) / self.nodes_per_axis


@dataclass(frozen=True)
class RingWindow:
    """rho on sites [-half_width, half_width] of the ring of ``nodes``
    sites, and the ring's image bound on that block."""

    half_width: int
    nodes: int
    image_bound: float
    elements: np.ndarray  # complex, (2L+1) x (2L+1), index = site + L

    @property
    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)


def propagator_exponent(
    k1: float | np.ndarray, k2: float | np.ndarray, p: ModelParams
) -> complex | np.ndarray:
    """F(k1, k2) per unit t', elementwise over broadcast momentum arrays;
    Re F <= 0, and F = 0 on the diagonal."""
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()):
        raise ValueError("k1, k2 must be finite")
    return p.r_d * (np.cos(k1 - k2) - 1.0) + 1j * (np.cos(k1) - np.cos(k2))


def _min_exp(log_terms: np.ndarray) -> float:
    """exp of the smallest log bound over the theta grid (inf past overflow)."""
    with np.errstate(over="ignore"):
        return float(np.exp(np.min(log_terms)))


def _log_phi(p: ModelParams) -> np.ndarray:
    sh = np.sinh(0.5 * _THETA)
    return 2.0 * p.tprime * sh + 2.0 * p.x * sh * sh


def tail_bound(p: ModelParams, half_width: int) -> float:
    """Bound on the probability outside [-half_width, half_width]."""
    return min(1.0, 2.0 * _min_exp(_log_phi(p) - _THETA * (half_width + 1)))


def half_width(p: ModelParams) -> int:
    """Smallest L whose tail bound leaves at most MASS_TOL outside [-L, L]."""
    half = max(0, int(np.min(np.ceil((_log_phi(p) - math.log(0.5 * MASS_TOL)) / _THETA))) - 1)
    while tail_bound(p, half) > MASS_TOL:  # roundoff in the ceiling
        half += 1
    return half


def image_bound(s_values: np.ndarray, p: ModelParams, nodes: int) -> float:
    """Bound on max |rho_N - rho| over the block of ``s_values``, N = ``nodes``."""
    s = np.abs(np.asarray(s_values, dtype=int))
    half_log_phi = 0.5 * _log_phi(p)
    geometric = np.log(-np.expm1(-0.5 * _THETA * nodes))
    u = min(1.0, _min_exp(half_log_phi - 0.5 * _THETA * s.min()))
    a = sum(_min_exp(half_log_phi - 0.5 * _THETA * m - geometric)
            for m in (nodes + s.min(), nodes - s.max()))
    return a * (2.0 * u + a)


def ring_size(s_values: np.ndarray, p: ModelParams) -> int:
    """Smallest power-of-two ring, from 16 sites, whose image bound on the
    block of ``s_values`` is within IMAGE_TOL."""
    for nodes in (2**k for k in range(4, MAX_NODES.bit_length())):
        if image_bound(s_values, p, nodes) <= IMAGE_TOL:
            return nodes
    raise QuadratureLimitError(f"no ring of at most {MAX_NODES} sites holds sites "
                               f"[{np.min(s_values)}, {np.max(s_values)}] at {p}")


def density_block_quadrature(
    s_values: np.ndarray, p: ModelParams, q: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """<s1|rho|s2> over all site pairs from one array, taken from the ring
    of ``q.nodes_per_axis`` sites; one element is entry [0, 1] of the block
    over ``[s1, s2]``.  Raises QuadratureLimitError when the block's image
    bound exceeds IMAGE_TOL."""
    s_values = np.asarray(s_values, dtype=int)
    n = q.nodes_per_axis
    if not (bound := image_bound(s_values, p, n)) <= IMAGE_TOL:
        raise QuadratureLimitError(f"image bound {bound:.3e} above {IMAGE_TOL:.0e}: sites "
                                   f"[{s_values.min()}, {s_values.max()}], {n}-site ring, {p}")
    k = q.nodes()
    mat = np.exp(p.tprime * propagator_exponent(k[:, None], k[None, :], p))
    # on the nodes 2 pi j / n the ring is fft2(mat)[-s1 mod n, s2 mod n] / n^2
    ring = np.fft.fft2(np.fft.ifftshift(mat)) / n**2
    return ring[np.ix_(-s_values % n, s_values % n)]


def ring_window(p: ModelParams, half: int | None = None) -> RingWindow:
    """rho on sites [-half, half], by default the mass-complete window, from
    the smallest ring that keeps its image bound within IMAGE_TOL."""
    half = half_width(p) if half is None else half
    sites = np.arange(-half, half + 1)
    nodes = ring_size(sites, p)
    block = density_block_quadrature(sites, p, QuadratureSpec(nodes))
    block.setflags(write=False)  # one window may serve several callers
    return RingWindow(half, nodes, image_bound(sites, p, nodes), block)
