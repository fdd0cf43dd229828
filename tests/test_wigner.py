import math

import numpy as np
import pytest
from scipy.special import ive, jv

from dqwalk.bessel import bessel_i_scaled_orders, bessel_j_orders
from dqwalk.core import ModelParams, probability_profile, truncation_for
from dqwalk.exceptions import BracketError, WindowTooSmallError
from dqwalk.fourier import half_width, ring_window, tail_bound
from dqwalk.wigner import (
    critical_rd,
    k_grid,
    min_wigner_over_time,
    momentum_marginal,
    position_marginal,
    total_mass,
    wigner_from_density,
    wigner_grid,
    wigner_row,
    wigner_value,
)

from series_reference import wigner_series

TWO_PI = 2.0 * math.pi

# frozen from the 40-digit ascending-series reference
J0_3_8_OVER_2PI = -0.064068842553247056
J2_2_OVER_2PI = 0.056155279745205992


def setup(tprime, r_d):
    p = ModelParams(tprime=tprime, r_d=r_d)
    return p, truncation_for(p)


class TestPointValues:
    def test_initial_condition(self):
        p, tr = setup(0.0, 3.0)
        assert wigner_value(0, 1.2, p, tr) == pytest.approx(1.0 / TWO_PI, abs=1e-15)
        assert wigner_value(4, 1.2, p, tr) == 0.0

    def test_frozen_negative_dip(self):
        # W(0, pi) without dissipation at t' = 1.9
        p, tr = setup(1.9, 0.0)
        assert wigner_value(0, math.pi, p, tr) == pytest.approx(
            J0_3_8_OVER_2PI, abs=1e-14
        )

    def test_k_validation(self):
        p, tr = setup(1.0, 0.5)
        with pytest.raises(ValueError):
            wigner_value(0, 4.0, p, tr)

    def test_even_in_k(self):
        p, tr = setup(3.0, 0.4)
        for s, k in [(0, 0.7), (2, 2.1), (-3, 1.3)]:
            assert wigner_value(s, k, p, tr) == wigner_value(s, -k, p, tr)

    def test_even_in_s(self):
        p, tr = setup(3.0, 0.4)
        for s in [1, 2, 5]:
            assert wigner_value(s, 1.1, p, tr) == pytest.approx(
                wigner_value(-s, 1.1, p, tr), abs=1e-15
            )


def convolution_reference(s, k, tprime, x):
    """W(s, k) as the site convolution of the coherent and classical limits,
    sum_n J_{2(s-n)}(2 t' sin(k/2)) e^{-x} I_n(x) / 2pi, from ``scipy.special``."""
    n = np.arange(-80, 81)
    return float(np.sum(jv(2 * (s - n), 2.0 * tprime * math.sin(0.5 * k)) * ive(n, x))) / TWO_PI


class TestLimits:
    """The r_D = 0 grid is the coherent walk's J_{2s}(2 t' sin(k/2)) / 2pi
    and the t' -> 0 grid at fixed x the classical walk's e^{-x} I_s(x) / 2pi,
    both from ``scipy.special``, which shares no code with the Miller rows."""

    def test_qw_frozen_value(self):
        p, tr = setup(1.0, 0.0)
        assert wigner_value(1, math.pi, p, tr) == pytest.approx(J2_2_OVER_2PI, abs=1e-14)

    @pytest.mark.parametrize("s", [0, 1, -2])
    @pytest.mark.parametrize("k", [0.0, 1.0, math.pi])
    def test_series_reduces_to_qw(self, s, k):
        p, tr = setup(2.5, 0.0)
        assert wigner_value(s, k, p, tr) == pytest.approx(
            jv(2 * s, 5.0 * math.sin(0.5 * k)) / TWO_PI, abs=1e-14
        )

    @pytest.mark.parametrize("s", [0, 1, 4])
    def test_series_reduces_to_crw(self, s):
        # hopping-free limit: t' -> 0 at fixed x
        eps, x = 1e-7, 1.5
        p, tr = setup(eps, x / eps)
        for k in [0.0, 0.9, math.pi]:
            assert wigner_value(s, k, p, tr) == pytest.approx(ive(s, x) / TWO_PI, abs=1e-10)

    def test_crw_nonnegative_and_k_free(self):
        eps, x = 1e-7, 4.0
        p, tr = setup(eps, x / eps)
        grid = wigner_grid(-6, 6, p, k_grid(9), tr)
        assert np.all(grid.values >= 0.0)
        assert np.max(np.abs(grid.values - ive(grid.sites, x)[:, None] / TWO_PI)) < 1e-10


class TestConsistency:
    @pytest.mark.parametrize("s,k", [(0, math.pi), (3, 0.8), (-2, 2.0)])
    def test_convolution_identity(self, s, k):
        p, tr = setup(5.0, 0.5)
        assert abs(wigner_value(s, k, p, tr) - convolution_reference(s, k, 5.0, p.x)) < 1e-9

    def test_matches_defining_sum_from_density(self):
        p, tr = setup(4.0, 0.8)
        window = ring_window(p)
        for s, k in [(0, 0.0), (1, 1.3), (-5, math.pi), (3, -0.6)]:
            assert abs(
                wigner_value(s, k, p, tr) - wigner_from_density(s, k, window)
            ) < 1e-10

    def test_from_density_error_bounds(self):
        # at (1, 0) the mass-complete window [-L, L], L = 7, misses W(+-3, k)
        # by 3.5e-9, within sqrt(eps)/pi; on [-2L, 2L] every pair dropped at
        # |s| <= L/2 has both sites outside [-L, L], so the miss is within
        # eps/(2 pi).  Each bound adds the ring's image bound per summed term.
        p = ModelParams(1.0, 0.0)
        half = half_width(p)
        eps = tail_bound(p, half)
        for width, reach, bound in [
            (half, half, math.sqrt(eps) / math.pi),
            (2 * half, half // 2, eps / TWO_PI),
        ]:
            window = ring_window(p, width)
            for s in range(-reach, reach + 1):
                terms = 2 * (width - abs(s)) + 1
                for k in np.linspace(-math.pi, math.pi, 17):
                    exact = jv(2 * s, 2.0 * math.sin(0.5 * k)) / TWO_PI
                    miss = abs(wigner_from_density(s, float(k), window) - exact)
                    assert miss <= bound + terms * window.image_bound / TWO_PI + 1e-16

    def test_from_density_window_guard(self):
        p, tr = setup(1.0, 0.1)
        window = ring_window(p)
        with pytest.raises(WindowTooSmallError):
            wigner_from_density(window.half_width + 1, 0.5, window)


def gather_row(s_values, k, p, trunc):
    """The sites x orders evaluation of the Wigner series; reference only."""
    n = trunc.orders()
    z = abs(2.0 * p.tprime * math.sin(0.5 * k))
    j = bessel_j_orders(2 * np.asarray(s_values)[:, None] + 2 * n[None, :], z)
    return (j @ bessel_i_scaled_orders(n, p.x)) / TWO_PI


class TestRowKernel:
    def test_against_series_reference(self):
        p, tr = setup(20.0, 0.5)
        k = 2.0
        z = abs(2.0 * 20.0 * math.sin(0.5 * k))
        sites = np.array([0, 15, 40, 60])
        row = wigner_row(sites, k, p, tr)
        for s, v in zip(sites, row):
            ref = float(wigner_series(int(s), z, p.x, 100)) / TWO_PI
            assert abs(v - ref) < 1e-15

    def test_empty_and_reversed_sites_match_gather(self):
        p, tr = setup(9.0, 0.3)
        assert wigner_row(np.array([], dtype=int), 1.1, p, tr).shape == (0,)
        s = np.arange(-10, 14)
        for sites in (-s, s[::-1], np.array([4, -7, 4, 0])):
            ref = gather_row(sites, 1.1, p, tr)
            assert np.allclose(wigner_row(sites, 1.1, p, tr), ref, rtol=0.0, atol=1e-16)


class TestGridAndMarginals:
    def test_k_grid_is_closed_brillouin_zone(self):
        k = k_grid(9)
        assert k[0] == -math.pi and k[-1] == math.pi
        with pytest.raises(ValueError):
            k_grid(1)

    def test_marginals_and_mass(self):
        p, tr = setup(2.0, 0.3)
        grid = wigner_grid(-25, 25, p, k_grid(), tr)
        probs = probability_profile(grid.sites, p, tr)
        assert np.max(np.abs(position_marginal(grid) - probs)) < 1e-8
        assert np.max(np.abs(momentum_marginal(grid) - 1.0 / TWO_PI)) < 1e-10
        assert total_mass(grid) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_empty_site_range(self):
        p, tr = setup(1.0, 0.0)
        with pytest.raises(ValueError):
            wigner_grid(3, 2, p, k_grid(), tr)


class TestNegativityThreshold:
    def test_min_location_without_dissipation(self):
        # first extremum of J_0(2t') sits at t' = 3.8317/2
        t_star, w_min = min_wigner_over_time(0.0, np.arange(0.0, 5.0, 0.01))
        assert t_star == pytest.approx(1.92, abs=0.01)
        assert w_min == pytest.approx(-0.0640989455148061, abs=1e-12)
        assert w_min < 0.0

    def test_min_is_nonnegative_at_strong_dissipation(self):
        _, w_min = min_wigner_over_time(10.0, np.arange(0.0, 5.0, 0.05))
        assert w_min >= 0.0

    def test_t_grid_validation(self):
        with pytest.raises(ValueError):
            min_wigner_over_time(0.0, np.array([]))
        with pytest.raises(ValueError):
            min_wigner_over_time(0.0, np.array([1.0, 0.5]))

    def test_critical_rd_value(self):
        root = critical_rd()
        assert abs(root - 0.52) < 0.02

    def test_critical_rd_separates_signs(self):
        root = critical_rd()
        below, _ = setup(1.9, root - 0.05)
        above, _ = setup(1.9, root + 0.05)
        assert wigner_value(0, math.pi, below, truncation_for(below)) < 0.0
        assert wigner_value(0, math.pi, above, truncation_for(above)) > 0.0

    def test_bracket_failure_raises(self):
        with pytest.raises(BracketError):
            critical_rd(lo=1.0, hi=2.0)
        with pytest.raises(ValueError):
            critical_rd(lo=2.0, hi=1.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-4, math.inf, math.nan])
    def test_rejects_bad_tolerance(self, tol):
        # an infinite tol would skip the bisection and return the bracket midpoint
        with pytest.raises(ValueError, match="tol"):
            critical_rd(tol=tol)
