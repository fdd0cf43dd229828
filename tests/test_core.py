import math
import tracemalloc

import numpy as np
import pytest

from dqwalk.bessel import bessel_i_scaled_orders, bessel_j_orders, truncation_order
from dqwalk.core import (
    ModelParams,
    anderson_velocity,
    characteristic_function,
    density_element,
    moment_via_cf,
    probability_crw,
    probability_profile,
    probability_qw,
    purity,
    truncation_for,
    variance,
)
from dqwalk.exceptions import TruncationMismatchError

from series_reference import profile_series

# frozen from the 40-digit ascending-series reference
J0_1_SQ = 0.58552749951366402438
J1_1_SQ = 0.19364451801445908452
I0S_1 = 0.4657596075936404365

RD_GRID = [0.0, 0.05, 0.5, 1.0, 5.0, 10.0]


def params(tprime, r_d):
    p = ModelParams(tprime=tprime, r_d=r_d)
    return p, truncation_for(p)


class TestModelParams:
    def test_x_is_product(self):
        assert ModelParams(3.0, 0.5).x == 1.5

    def test_rejects_negative_or_nonfinite(self):
        for bad in [(-1.0, 0.0), (0.0, -2.0), (float("nan"), 0.0), (1.0, float("inf"))]:
            with pytest.raises(ValueError):
                ModelParams(*bad)

    def test_physical_conversion(self):
        p = ModelParams.from_physical(omega_over_hbar=2.0, d_coeff=3.0, t=5.0)
        assert p.tprime == 10.0
        assert p.r_d == 3.0


class TestDensityElement:
    def test_initial_condition(self):
        p, tr = params(0.0, 7.3)
        assert density_element(0, 0, p, tr) == 1.0 + 0.0j
        p, tr = params(0.0, 0.0)
        assert density_element(3, 3, p, tr) == 0.0 + 0.0j

    def test_qw_diagonal_frozen(self):
        p, tr = params(1.0, 0.0)
        val = density_element(0, 0, p, tr)
        assert val.real == pytest.approx(J0_1_SQ, abs=1e-13)
        assert val.imag == 0.0

    def test_hermiticity_independent_evaluation(self):
        p, tr = params(4.0, 0.7)
        for s1, s2 in [(0, 1), (2, -3), (-5, 5), (1, 4)]:
            a = density_element(s1, s2, p, tr)
            b = density_element(s2, s1, p, tr)
            assert abs(a - b.conjugate()) < 1e-12

    def test_phase_pattern_is_exact_fourth_root(self):
        p, tr = params(2.0, 0.4)
        for diff, axis in [(0, "real"), (2, "real"), (1, "imag"), (3, "imag")]:
            val = density_element(diff, 0, p, tr)
            other = val.imag if axis == "real" else val.real
            assert other == 0.0

    def test_truncation_mismatch_rejected(self):
        p = ModelParams(2.0, 0.4)
        wrong = truncation_order(2.0, 5.0)
        with pytest.raises(TruncationMismatchError):
            density_element(0, 0, p, wrong)


class TestProbability:
    def test_all_mass_at_origin_at_t_zero(self):
        p, tr = params(0.0, 5.0)
        assert probability_profile(np.array([0]), p, tr)[0] == 1.0

    def test_anderson_peaks(self):
        # ballistic maxima of the dissipation-free profile at t' = 31.8
        p, tr = params(31.8, 0.0)
        s = np.arange(-40, 41)
        prof = probability_profile(s, p, tr)
        assert abs(s[np.argmax(prof)]) == 29

    def test_matches_quadrature_oracle(self):
        from dqwalk.fourier import density_block_quadrature

        p, tr = params(4.0, 0.5)
        direct = probability_profile(np.array([5]), p, tr)[0]
        assert abs(direct - density_block_quadrature([5, 5], p)[0, 1].real) < 1e-9

    @pytest.mark.parametrize("r_d", RD_GRID)
    @pytest.mark.parametrize("tprime", [0.5, 5.0, 31.8])
    def test_normalization(self, tprime, r_d):
        from dqwalk.fourier import half_width

        p, tr = params(tprime, r_d)
        half = half_width(p)
        prof = probability_profile(np.arange(-half, half + 1), p, tr)
        assert abs(prof.sum() - 1.0) < 1e-10

    def test_reflection_symmetry(self):
        p, tr = params(7.0, 0.8)
        s = np.arange(1, 25)
        assert np.max(np.abs(probability_profile(s, p, tr) - probability_profile(-s, p, tr))) < 1e-12

    @pytest.mark.parametrize("r_d", [0.0, 0.5, 5.0])
    def test_second_moment_matches_variance(self, r_d):
        from dqwalk.fourier import half_width

        p, tr = params(6.0, r_d)
        half = half_width(p)
        s = np.arange(-half, half + 1)
        second = float((s.astype(float) ** 2 * probability_profile(s, p, tr)).sum())
        expected = variance(p)
        assert abs(second - expected) < 1e-8 * (1.0 + expected)


def gather_profile(s_values, p, trunc):
    """The sites x orders evaluation of the profile series; reference only."""
    n = trunc.orders()
    j = bessel_j_orders(np.asarray(s_values)[:, None] + n[None, :], p.tprime)
    return (j * j) @ bessel_i_scaled_orders(n, p.x)


class TestProfileKernel:
    @pytest.mark.parametrize("r_d", [0.0, 0.5])
    def test_deep_tail_against_series_reference(self, r_d):
        # P_60 is 5.2e-46 at r_D = 0: every term is non-negative, so the
        # relative error stays at roundoff far below the profile maximum
        p, tr = params(20.0, r_d)
        sites = np.array([0, 15, 40, 60])
        prof = probability_profile(sites, p, tr)
        for s, v in zip(sites, prof):
            ref = float(profile_series(int(s), 20.0, p.x, 100))
            assert abs(v - ref) < 1e-11 * ref

    def test_memory_is_linear_in_sites_plus_orders(self):
        # the sites x orders gather peaked at 915 MB on this grid
        p, tr = params(2000.0, 0.5)
        sites = np.arange(-2600, 2601)
        tracemalloc.start()
        try:
            probability_profile(sites, p, tr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_empty_and_reversed_sites_match_gather(self):
        p, tr = params(7.0, 0.8)
        empty = probability_profile(np.array([], dtype=int), p, tr)
        assert empty.shape == (0,)
        s = np.arange(-12, 25)
        for sites in (-s, s[::-1], np.array([3, -9, 3, 0])):
            ref = gather_profile(sites, p, tr)
            assert np.allclose(probability_profile(sites, p, tr), ref, rtol=1e-14, atol=0.0)


class TestLimits:
    def test_qw_at_zero(self):
        assert probability_qw(0, 0.0) == 1.0

    def test_qw_frozen_value(self):
        assert probability_qw(1, 1.0) == pytest.approx(J1_1_SQ, abs=1e-13)

    @pytest.mark.parametrize("s", [-4, 0, 3])
    @pytest.mark.parametrize("tprime", [0.5, 2.0, 9.0])
    def test_qw_equals_dissipation_free_series(self, s, tprime):
        p, tr = params(tprime, 0.0)
        assert probability_profile(np.array([s]), p, tr)[0] == pytest.approx(
            probability_qw(s, tprime), abs=1e-14
        )

    def test_crw_at_zero(self):
        assert probability_crw(0, 0.0) == 1.0

    def test_crw_gaussian_asymptote(self):
        # P_0 -> 1/sqrt(2 pi x) at large x
        x = 100.0
        assert probability_crw(0, x) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * x), rel=2e-3
        )

    def test_crw_normalization(self):
        trunc = truncation_order(0.0, 10.0)
        total = sum(probability_crw(s, 10.0) for s in range(-trunc.n_max, trunc.n_max + 1))
        assert abs(total - 1.0) < 1e-12

    def test_hopping_free_limit_reaches_crw(self):
        # Omega -> 0 at fixed x: take tprime = eps, r_d = x / eps
        eps, x = 1e-6, 2.0
        p, tr = params(eps, x / eps)
        for s in [0, 1, 3]:
            assert probability_profile(np.array([s]), p, tr)[0] == pytest.approx(
                probability_crw(s, x), abs=1e-9
            )


class TestPurity:
    def test_pure_without_dissipation(self):
        assert purity(ModelParams(17.0, 0.0)) == 1.0
        assert purity(ModelParams(0.0, 9.0)) == 1.0

    def test_frozen_value(self):
        # 2x = 1
        assert purity(ModelParams(1.0, 0.5)) == pytest.approx(I0S_1, abs=1e-14)

    def test_range(self):
        for tprime, r_d in [(1.0, 0.1), (50.0, 3.0), (400.0, 10.0)]:
            value = purity(ModelParams(tprime, r_d))
            assert 0.0 < value <= 1.0


class TestCharacteristicFunction:
    def test_trace_at_zero(self):
        assert characteristic_function(0.0, ModelParams(5.0, 2.0)) == 1.0

    def test_classical_limit(self):
        p = ModelParams(0.0, 3.0)
        for xi in [0.3, 1.0, 2.5]:
            assert characteristic_function(xi, p) == pytest.approx(
                math.exp(-p.x * (1.0 - math.cos(xi))), abs=1e-15
            )

    @pytest.mark.parametrize("xi", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("tprime,r_d", [(1.0, 0.2), (4.0, 1.0), (10.0, 0.05)])
    def test_equals_lattice_sum(self, xi, tprime, r_d):
        from dqwalk.fourier import half_width

        p, tr = params(tprime, r_d)
        half = half_width(p)
        s = np.arange(-half, half + 1)
        lattice = float((probability_profile(s, p, tr) * np.cos(xi * s)).sum())
        assert abs(characteristic_function(xi, p) - lattice) < 1e-10


class TestMoments:
    def test_first_moment_vanishes(self):
        assert abs(moment_via_cf(1, ModelParams(3.0, 0.7))) < 1e-8

    def test_second_moment_is_variance(self):
        p = ModelParams(2.0, 1.0)
        assert moment_via_cf(2, p) == pytest.approx(4.0, abs=1e-5)

    def test_degenerate_point(self):
        assert abs(moment_via_cf(2, ModelParams(0.0, 0.0))) < 1e-8

    def test_rejects_bad_order_and_step(self):
        with pytest.raises(ValueError):
            moment_via_cf(3, ModelParams(1.0, 0.0))


class TestVarianceAndVelocity:
    def test_variance_examples(self):
        assert variance(ModelParams(0.0, 4.0)) == 0.0
        assert variance(ModelParams(2.0, 0.0)) == 2.0
        assert variance(ModelParams(2.0, 1.0)) == 4.0

    def test_anderson_velocity_value(self):
        assert anderson_velocity() == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_deviation_rate_identity(self):
        for tau in [1.0, 10.0, 31.8]:
            assert math.sqrt(variance(ModelParams(tau, 0.0))) / tau == pytest.approx(
                anderson_velocity(), abs=1e-15
            )

    def test_ballistic_front_at_or_beyond_sigma_bound(self):
        p, tr = params(31.8, 0.0)
        s = np.arange(-40, 41)
        peak = abs(s[np.argmax(probability_profile(s, p, tr))])
        assert peak / 31.8 >= anderson_velocity()
