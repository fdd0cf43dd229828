"""Integer-order Bessel rows and series-truncation bookkeeping.

Every lattice observable in this package is an infinite sum over Bessel
factors ``J_n(t')`` and ``e^{-x} I_n(x)``.  This module provides the finite
rows those sums are built from, always in the exponentially scaled form for
the modified functions so that nothing overflows even when ``x`` reaches
several hundred, plus a truncation-order rule with an explicit tail check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import NumericalError, TruncationMismatchError

EPS_TAIL_DEFAULT = 1e-14

#: floor on the truncation order; all series are single-term at t = 0 but a
#: small margin keeps index arithmetic uniform downstream
N_MAX_FLOOR = 20

#: cap on the 25% growth steps of :func:`truncation_order` (a factor of
#: about 7500 over the heuristic start); the direct tail sum falls below any
#: positive ``eps_tail`` long before, so reaching it means a non-finite tail
MAX_GROWTH_STEPS = 40


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation order for the bilateral Bessel sums.

    ``n_max`` bounds the retained orders ``|n| <= n_max`` and ``eps_tail``
    bounds the neglected scaled-I tail mass.  The (tprime, x) pair the
    truncation was built for is recorded so that downstream operations can
    reject a mismatched truncation instead of silently losing accuracy.
    """

    n_max: int
    eps_tail: float
    tprime: float
    x: float

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if not self.eps_tail > 0:
            raise ValueError(f"eps_tail must be > 0, got {self.eps_tail}")

    def orders(self) -> np.ndarray:
        """All retained orders n = -n_max .. n_max."""
        return np.arange(-self.n_max, self.n_max + 1)


def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """Return ``[J_0(x), ..., J_{n_max}(x)]``.

    Negative orders are the caller's business via J_{-n}(x) = (-1)^n J_n(x)
    (see :func:`bessel_j_orders`).
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return special.jv(np.arange(n_max + 1), x)


def bessel_i_scaled_row(n_max: int, x: float) -> np.ndarray:
    """Return ``[e^{-x} I_0(x), ..., e^{-x} I_{n_max}(x)]``.

    The unscaled I_n is never materialized: at large argument it overflows
    while the scaled product stays in [0, 1].
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < 0:
        raise ValueError(f"scaled I row defined for x >= 0 only, got {x}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return special.ive(np.arange(n_max + 1), x)


def bessel_j_orders(orders: np.ndarray, x: float) -> np.ndarray:
    """J_n(x) for an arbitrary integer order array, using the parity rule
    J_{-n}(x) = (-1)^n J_n(x)."""
    orders = np.asarray(orders)
    mag = np.abs(orders)
    row = bessel_j_row(int(mag.max()) if mag.size else 0, x)
    vals = row[mag]
    vals = np.where((orders < 0) & (mag % 2 == 1), -vals, vals)
    return vals


def bessel_i_scaled_orders(orders: np.ndarray, x: float) -> np.ndarray:
    """e^{-x} I_n(x) for an arbitrary integer order array (I_{-n} = I_n)."""
    orders = np.asarray(orders)
    mag = np.abs(orders)
    row = bessel_i_scaled_row(int(mag.max()) if mag.size else 0, x)
    return row[mag]


def scaled_i_tail(n_max: int, x: float) -> float:
    """Neglected mass ``sum_{|n| > n_max} e^{-x} I_n(x)``.

    The neglected terms are summed directly, in blocks of growing length,
    so the result keeps its relative accuracy down to underflow; the
    complement ``1 - (retained mass)`` would stop near 1e-16.  The terms
    decrease in n and so does their ratio ``I_{n+1}/I_n`` (Turan's
    inequality), so past a block ending in term t with ratio r the rest is
    at most ``t r / (1 - r)``; summing stops once that is below roundoff.
    """
    if not (math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be finite and >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    total = 0.0
    lo, size = n_max + 1, 64
    while True:
        block = special.ive(np.arange(lo, lo + size), x)
        total += block.sum()
        last = block[-1]
        if last == 0.0:
            return 2.0 * total
        ratio = last / block[-2]
        if ratio < 1.0 and last * ratio / (1.0 - ratio) <= 1e-17 * total:
            return 2.0 * total
        lo, size = lo + size, 2 * size


def truncation_order(
    tprime: float, x: float, eps_tail: float = EPS_TAIL_DEFAULT
) -> SeriesTruncation:
    """Choose n_max so that both Bessel families are negligible beyond it.

    Starts from the heuristic
    ``n_max = ceil(max(x + 10*sqrt(x), tprime + 10*tprime^{1/3}) + 20)``
    and then grows by 25% until the explicitly summed scaled-I tail is below
    ``eps_tail``, raising :class:`NumericalError` if it is not after
    ``MAX_GROWTH_STEPS`` steps.  The heuristic margin also pushes past the
    turning point of J_m(tprime), so |J_m(tprime)| < eps_tail for
    |m| > n_max + ceil(tprime).
    """
    for name, v in (("tprime", tprime), ("x", x), ("eps_tail", eps_tail)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if tprime < 0 or x < 0:
        raise ValueError(f"tprime and x must be >= 0, got ({tprime}, {x})")
    if not eps_tail > 0:
        raise ValueError(f"eps_tail must be > 0, got {eps_tail}")

    n_max = math.ceil(
        max(x + 10.0 * math.sqrt(x), tprime + 10.0 * tprime ** (1.0 / 3.0)) + N_MAX_FLOOR
    )
    for _ in range(MAX_GROWTH_STEPS):
        if scaled_i_tail(n_max, x) < eps_tail:
            return SeriesTruncation(n_max=n_max, eps_tail=eps_tail, tprime=tprime, x=x)
        n_max = int(n_max * 1.25) + 5
    raise NumericalError(
        f"scaled-I tail still >= {eps_tail:.3e} at n_max = {n_max} "
        f"after {MAX_GROWTH_STEPS} growth steps (x = {x})"
    )


def check_truncation(trunc: SeriesTruncation, tprime: float, x: float) -> None:
    """Raise if ``trunc`` was built for different parameters."""
    if trunc.tprime != tprime or trunc.x != x:
        raise TruncationMismatchError(
            f"truncation built for (tprime={trunc.tprime}, x={trunc.x}), "
            f"used with (tprime={tprime}, x={x})"
        )
