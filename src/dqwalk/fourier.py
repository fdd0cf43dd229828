"""Momentum-space solution of the master equation and its quadrature.

In the Fourier basis the master equation decouples: each <k1|rho|k2>
element just picks up the factor exp(F(k1,k2) t) with

    F(k1, k2) = i (cos k1 - cos k2) + r_D (cos(k1 - k2) - 1)   (per unit t')

Transforming back to the lattice is a double integral over the Brillouin
zone, evaluated here by the periodic trapezoid rule.  The integrand is
entire and 2pi-periodic in both variables, so the rule converges
spectrally and the result is a series-free cross-check for every
density-matrix element.  :func:`density_block_quadrature` is the one entry
point; a single element is its block over two sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams
from .exceptions import QuadratureLimitError

TWO_PI = 2.0 * math.pi

NODES_DEFAULT = 256

#: most nodes per axis: the propagator matrix then holds 64 MB; the
#: benchmark's output checks use 1024
MAX_NODES = 2048

#: the integrand oscillates with frequency ~ t'; below this many nodes per
#: unit time the rule silently loses accuracy, so we refuse instead
NODES_PER_TPRIME = 8


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform periodic-trapezoid grid on [-pi, pi), duplicate endpoint
    excluded."""

    nodes_per_axis: int = NODES_DEFAULT

    def __post_init__(self):
        n = self.nodes_per_axis
        if not (16 <= n <= MAX_NODES and n % 2 == 0):
            raise ValueError(f"nodes_per_axis must be even and in [16, {MAX_NODES}], got {n}")

    def nodes(self) -> np.ndarray:
        n = self.nodes_per_axis
        return -math.pi + TWO_PI * np.arange(n) / n

    def max_tprime(self) -> float:
        return self.nodes_per_axis / NODES_PER_TPRIME


def propagator_exponent(
    k1: float | np.ndarray, k2: float | np.ndarray, p: ModelParams
) -> complex | np.ndarray:
    """F(k1, k2) per unit t', elementwise over broadcast momentum arrays;
    Re F <= 0, and F = 0 on the diagonal."""
    k1, k2 = np.asarray(k1, dtype=float), np.asarray(k2, dtype=float)
    if not (np.isfinite(k1).all() and np.isfinite(k2).all()):
        raise ValueError("k1, k2 must be finite")
    return p.r_d * (np.cos(k1 - k2) - 1.0) + 1j * (np.cos(k1) - np.cos(k2))


def density_block_quadrature(
    s_values: np.ndarray, p: ModelParams, q: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """Quadrature matrix <s1|rho|s2> over all site pairs from one array,
    with no Bessel series on this route; one element is entry [0, 1] of
    the block over ``[s1, s2]``."""
    if p.tprime > q.max_tprime():
        raise QuadratureLimitError(
            f"tprime={p.tprime} exceeds validity ceiling "
            f"{q.max_tprime()} for {q.nodes_per_axis} nodes"
        )
    s_values = np.asarray(s_values, dtype=int)
    k = q.nodes()
    mat = np.exp(p.tprime * propagator_exponent(k[:, None], k[None, :], p))
    left = np.exp(1j * np.outer(s_values, k))
    right = np.exp(-1j * np.outer(k, s_values))
    return (left @ mat @ right) / q.nodes_per_axis**2

