"""Integer-order Bessel rows by Miller's backward recurrence, and
series-truncation bookkeeping.

Every lattice observable in this package is a sum over the rows J_n(t')
and w_n = e^{-x} I_n(x), n = 0, 1, 2, ...  Both rows are computed here in
plain floating point by Miller's algorithm (W. Gautschi, SIAM Rev. 9
(1967) 24; F. W. J. Olver and D. J. Sookne, Math. Comp. 26 (1972) 941):

* Recurrence.  Starting from f_{M+1} = 0, f_M = 1 at a start order M,

      J:  f_{k-1} = (2k/x) f_k - f_{k+1},
      I:  f_{k-1} = (2k/x) f_k + f_{k+1},

  is run down to k = 1 by one loop for both rows; only the sign of the
  f_{k+1} term differs.  J_n and I_n are the minimal solutions of these
  recurrences, so downwards the computed f_n become proportional to them
  at a rate set by how far M lies above n.
* Normalization.  The common factor is fixed by the identities

      J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1,
      e^{-x} (I_0(x) + 2 sum_{k>=1} I_k(x)) = 1   (the Skellam mass),

  so the modified row comes out directly in its scaled form and nothing
  overflows at large x.  The I sum has no cancellation at all.
* Start order.  Orders whose rigorous bound lies below the smallest normal
  double TINY (2.2e-308) are set to zero, using |J_n(x)| <= (x/2)^n / n!
  and the Chernoff bound of the Skellam pmf,
  e^{-x} I_n(x) <= exp(sqrt(n^2 + x^2) - x - n asinh(n/x)).  The I
  recurrence starts at the last order whose bound is still at least TINY,
  so one pass covers every order that can matter.  The J recurrence starts
  at the lower of that order and max(n_top, x) + 20 + 10 x^{1/3}, where
  n_top is the top order requested: 20 + 10 x^{1/3} orders past the
  turning point n = x, J_n has decayed by the Airy factor exp(-30) or
  more, so the start condition f_{M+1} = 0 costs every order up to n_top
  a relative error near 1e-26.
* Rescaling.  Downwards the values grow by up to 1/TINY and more (about
  1e441 from order 3350 to the peak at x = 2000).  Whenever |f| exceeds
  RESCALE = 1e150, everything computed so far is divided by |f|; entries
  that underflow in the process are below TINY in the final row too.

``tests/test_bessel.py`` compares the rows with ``scipy.special.jv`` and
``ive``, which only the tests need: the J row to 1e-12 absolute up to
x = 2000 (the summed roundoff of the recurrence is about 3e-14 there), the
scaled I row to 1e-11 relative up to x = 1e4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError, TruncationMismatchError

EPS_TAIL_DEFAULT = 1e-14

#: floor on the truncation order; all series are single-term at t = 0 but a
#: small margin keeps index arithmetic uniform downstream
N_MAX_FLOOR = 20

#: smallest positive normal double; orders whose bound is below it are zero
TINY = sys.float_info.min
_LOG_TINY = math.log(TINY)

#: |f| above which the recurrences rescale what they have computed
RESCALE = 1e150

#: highest order a recurrence may start at and a truncation may keep: J
#: arguments and truncations up to about 2e6, scaled-I arguments up to about
#: 2.8e9; beyond it one row would take seconds and hundreds of MB, and the
#: paper's range needs less than 10^4
MAX_ORDER = 2 * 10**6


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation order for the bilateral Bessel sums.

    ``n_max`` bounds the retained orders ``|n| <= n_max`` and ``eps_tail``
    bounds the neglected scaled-I tail mass.  The (tprime, x) pair the
    truncation was built for is recorded so that downstream operations can
    reject a mismatched truncation instead of silently losing accuracy.
    ``weights`` holds e^{-x} I_n(x) at every order of :meth:`orders`, from
    the recurrence pass of :func:`truncation_order`.
    """

    n_max: int
    eps_tail: float
    tprime: float
    x: float
    weights: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if not self.eps_tail > 0:
            raise ValueError(f"eps_tail must be > 0, got {self.eps_tail}")
        if self.weights.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"weights must have shape ({2 * self.n_max + 1},), got {self.weights.shape}"
            )
        self.weights.setflags(write=False)  # shared by every caller of this truncation

    def orders(self) -> np.ndarray:
        """All retained orders n = -n_max .. n_max."""
        return np.arange(-self.n_max, self.n_max + 1)


def _symmetric(half: np.ndarray) -> np.ndarray:
    """Row over orders -n..n from its entries at 0..n, with w_{-n} = w_n."""
    return np.concatenate((half[:0:-1], half))


def _leading(vals: np.ndarray, n_max: int) -> np.ndarray:
    """Entries 0..n_max of ``vals``, zero past its end."""
    row = np.zeros(n_max + 1)
    kept = min(n_max + 1, vals.size)
    row[:kept] = vals[:kept]
    return row


def _check_row_args(n_max: int, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")


def _last_order_above_tiny(log_bound, lo: int, cap: int) -> int:
    """Largest order n in [lo, cap] with ``log_bound(n) >= log(TINY)``, for
    a bound that is at least TINY at ``lo`` and decreasing beyond it."""
    if log_bound(cap) >= _LOG_TINY:
        return cap
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid) >= _LOG_TINY:
            lo = mid
        else:
            hi = mid
    return lo


def _check_start(start: int, x: float) -> None:
    if start > MAX_ORDER:
        raise ValueError(
            f"Bessel argument {x:.6g} needs a recurrence from order {start:.6g} or more, "
            f"above {MAX_ORDER}"
        )


def _miller(start: int, x: float, sign: float) -> np.ndarray:
    """f_0 .. f_start of the recurrence f_{k-1} = (2k/x) f_k + sign f_{k+1}
    from f_{start+1} = 0, f_start = 1, up to a common factor: sign -1 is
    the J recurrence and +1 the I recurrence.  Whenever |f| exceeds
    RESCALE, every value computed so far is divided by |f|."""
    two_over_x, big_sq = 2.0 / x, RESCALE * RESCALE
    vals, rescales = [1.0], []
    append = vals.append
    f_next, f = 0.0, 1.0
    for k in range(start, 0, -1):
        f_next, f = f, k * two_over_x * f + sign * f_next
        append(f)
        if f * f > big_sq:
            scale = 1.0 / abs(f)
            rescales.append((len(vals), scale))
            f_next, f = f_next * scale, f * scale
    row = np.array(vals)
    for count, scale in rescales:
        row[:count] *= scale
    return row[::-1]


def bessel_j_row(n_max: int, x: float) -> np.ndarray:
    """Return ``[J_0(x), ..., J_{n_max}(x)]`` by Miller's recurrence.

    Negative orders are the caller's business via J_{-n}(x) = (-1)^n J_n(x)
    (see :func:`bessel_j_orders`).
    """
    _check_row_args(n_max, x)
    if 0.5 * x < TINY:  # J_0 = 1 - x^2/4 = 1, and J_1 = x/2 is below TINY
        return _leading(np.ones(1), n_max)
    # for x >= 1 the bound is above TINY at n = x, so the start is at least
    # x: reject a large x before searching, where n! would overflow
    _check_start(math.ceil(x), x)
    log_h = math.log(0.5 * x)
    start = _last_order_above_tiny(
        lambda n: n * log_h - math.lgamma(n + 1),
        int(0.5 * x),
        max(n_max, math.ceil(x)) + 20 + math.ceil(10.0 * x ** (1.0 / 3.0)),
    )
    _check_start(start, x)
    vals = _miller(start, x, -1.0)
    vals /= vals[0] + 2.0 * vals[2::2].sum()
    return _leading(vals, n_max)


def _scaled_i_pass(x: float) -> np.ndarray:
    """``e^{-x} I_n(x)`` for n = 0 .. M by Miller's recurrence, where M is
    the last order whose Chernoff bound is at least TINY; every order above
    M is below TINY.  One pass gives both a weight row and its tail."""
    if x == 0.0:
        return np.ones(1)
    start = _last_order_above_tiny(
        lambda n: math.hypot(n, x) - x - n * math.asinh(n / x), 0, MAX_ORDER + 1
    )
    _check_start(start, x)
    vals = _miller(start, x, 1.0)
    vals /= vals[0] + 2.0 * vals[1:].sum()
    return vals


def bessel_i_scaled_row(n_max: int, x: float) -> np.ndarray:
    """Return ``[e^{-x} I_0(x), ..., e^{-x} I_{n_max}(x)]`` by Miller's
    recurrence.

    The unscaled I_n is never materialized: at large argument it overflows
    while the scaled product stays in [0, 1].
    """
    _check_row_args(n_max, x)
    return _leading(_scaled_i_pass(x), n_max)


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

    The neglected terms of the recurrence row are summed directly, so the
    result keeps its relative accuracy down to underflow; the complement
    ``1 - (retained mass)`` would stop near 1e-16.  Kept as the oracle of
    :func:`truncation_order`'s tail in ``tests/test_bessel.py``.
    """
    _check_row_args(n_max, x)
    return 2.0 * float(_scaled_i_pass(x)[n_max + 1 :].sum())


def truncation_order(
    tprime: float, x: float, eps_tail: float = EPS_TAIL_DEFAULT
) -> SeriesTruncation:
    """Choose n_max, the highest order kept in the bilateral Bessel sums.

    Starts from the heuristic
    ``n_max = ceil(max(x + 10*sqrt(x), tprime + 10*tprime^{1/3}) + 20)``
    and then grows by 25% until the directly summed scaled-I tail is below
    ``eps_tail``.  The tail and the returned weight row come from one
    recurrence pass, which reaches the order where the terms fall below
    TINY, so growth ends there at the latest; an order above MAX_ORDER
    raises ValueError.

    The scaled-I tail alone bounds what every sum neglects (|J| <= 1); the
    tprime term is for relative accuracy beyond the ballistic front.  A site
    |s| > tprime draws its probability from orders n near |s| - tprime, and
    the dropped |n| > n_max meet J of order one, so P_s keeps its relative
    accuracy out to |s| of about tprime + n_max.  At (tprime, x) = (20, 10)
    n_max = 68 keeps 1e-11 to |s| = 84; the tail alone gives 28, which loses
    it from |s| = 34 (P = 3.3e-6).
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
    w = _scaled_i_pass(x)
    if not np.isfinite(w).all():
        raise NumericalError(f"scaled-I recurrence is not finite at x = {x}")
    while n_max + 1 < w.size and not 2.0 * w[n_max + 1 :].sum() < eps_tail:
        n_max = int(n_max * 1.25) + 5
    if n_max > MAX_ORDER:
        raise ValueError(
            f"truncation order {n_max} for (tprime, x) = ({tprime:.6g}, {x:.6g}) "
            f"is above {MAX_ORDER}"
        )
    return SeriesTruncation(
        n_max=n_max, eps_tail=eps_tail, tprime=tprime, x=x,
        weights=_symmetric(_leading(w, n_max)),
    )


def check_truncation(trunc: SeriesTruncation, tprime: float, x: float) -> None:
    """Raise if ``trunc`` was built for different parameters."""
    if trunc.tprime != tprime or trunc.x != x:
        raise TruncationMismatchError(
            f"truncation built for (tprime={trunc.tprime}, x={trunc.x}), "
            f"used with (tprime={tprime}, x={x})"
        )
