"""Independent high-precision reference values for the Bessel kernels.

Ascending power series summed in 40-digit arithmetic with mpmath; no code
from the package under test is used here.  Slow but exact enough to pin
every frozen constant in the suite.
"""

from functools import lru_cache

from mpmath import exp, factorial, mp, mpf

mp.dps = 40

_TINY = mpf(10) ** -35


def j_series(n: int, x) -> mpf:
    """J_n(x) from the ascending series sum_k (-1)^k (x/2)^(n+2k) / (k! (n+k)!)."""
    if n < 0:
        return (-1) ** n * j_series(-n, x)
    x = mpf(x)
    total = mpf(0)
    k = 0
    while True:
        term = (-1) ** k * (x / 2) ** (n + 2 * k) / (factorial(k) * factorial(n + k))
        total += term
        if abs(term) < _TINY and k > x / 2:
            return total
        k += 1


def i_scaled_series(n: int, x) -> mpf:
    """e^{-x} I_n(x) from the ascending series with the explicit scale factor.

    All terms are non-negative, so summing stops on a term relative to the
    partial sum: deep-tail values such as e^{-7} I_55(7) = 7.5e-47 keep
    their relative accuracy.
    """
    n = abs(n)
    x = mpf(x)
    total = mpf(0)
    k = 0
    while True:
        term = (x / 2) ** (n + 2 * k) / (factorial(k) * factorial(n + k))
        total += term
        if term <= _TINY * total and k > x / 2:
            return exp(-x) * total
        k += 1


@lru_cache(maxsize=None)
def _j_cached(n: int, x) -> mpf:
    return j_series(n, x)


@lru_cache(maxsize=None)
def _i_cached(n: int, x) -> mpf:
    return i_scaled_series(n, x)


def profile_series(s: int, tprime, x, reach: int) -> mpf:
    """Site probability sum_{|n| <= reach} J_{s+n}(t')^2 e^{-x} I_n(x)."""
    return sum(_j_cached(s + n, tprime) ** 2 * _i_cached(n, x) for n in range(-reach, reach + 1))


def wigner_series(s: int, z, x, reach: int) -> mpf:
    """2 pi W(s, k) = sum_{|n| <= reach} J_{2s+2n}(z) e^{-x} I_n(x), z = 2 t' sin(k/2)."""
    return sum(_j_cached(2 * (s + n), z) * _i_cached(n, x) for n in range(-reach, reach + 1))
