import math

import numpy as np
import pytest
from scipy.special import ive

from dqwalk.core import ModelParams, probability_profile, purity, truncation_for
from dqwalk.exceptions import NumericalError
from dqwalk.spectral import (
    MIN_HALF_WIDTH,
    build_window,
    eigen_spectrum,
    entropy,
    entropy_small_dissipation,
    window_entropy,
    window_half_width,
)


class TestWindowSizing:
    def test_floor_at_degenerate_point(self):
        half, lost = window_half_width(ModelParams(0.0, 0.0))
        assert half == MIN_HALF_WIDTH
        assert lost == 0.0

    @pytest.mark.parametrize("tprime,r_d", [(5.0, 0.05), (20.0, 1.0), (31.8, 0.0), (10.0, 10.0)])
    def test_mass_bound_holds(self, tprime, r_d):
        p = ModelParams(tprime, r_d)
        half, lost = window_half_width(p)
        assert lost < 1e-12
        prof = probability_profile(np.arange(-half, half + 1), p, truncation_for(p))
        assert 1.0 - prof.sum() < 1e-12 + 1e-14


class TestBuildWindow:
    def test_trace_and_hermiticity(self):
        for tprime, r_d in [(5.0, 0.05), (20.0, 1.0), (31.8, 0.0)]:
            w = build_window(ModelParams(tprime, r_d))
            assert abs(w.trace() - 1.0) < 1e-10
            m = w.elements
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_diagonal_is_probability_profile(self):
        p = ModelParams(4.0, 0.5)
        w = build_window(p)
        probs = probability_profile(w.sites, p, truncation_for(p))
        assert np.max(np.abs(np.diag(w.elements).real - probs)) < 1e-13

    def test_matches_elementwise_series(self):
        from dqwalk.core import density_element

        p = ModelParams(3.0, 0.7)
        w = build_window(p)
        h = w.half_width
        for s1, s2 in [(0, 0), (2, -1), (-4, 3), (5, 5)]:
            assert abs(
                w.elements[s1 + h, s2 + h] - density_element(s1, s2, p, truncation_for(p))
            ) < 1e-12

    def test_purity_from_elements(self):
        p = ModelParams(6.0, 0.8)
        w = build_window(p)
        frobenius = float(np.sum(np.abs(w.elements) ** 2))
        assert abs(frobenius - purity(p)) < 1e-8


class TestSpectrum:
    def test_pure_state_spectrum(self):
        spec = eigen_spectrum(build_window(ModelParams(7.0, 0.0)))
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.eigenvalues[1:] < 1e-12)

    def test_probabilities_sorted_and_normalized(self):
        spec = eigen_spectrum(build_window(ModelParams(10.0, 1.0)))
        vals = spec.eigenvalues
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= 0.0)
        assert vals.sum() == pytest.approx(1.0, abs=1e-14)

    def test_purity_identity(self):
        p = ModelParams(5.0, 0.4)
        spec = eigen_spectrum(build_window(p))
        assert float((spec.eigenvalues**2).sum()) == pytest.approx(purity(p), abs=1e-9)

    def test_broken_matrix_raises(self):
        w = build_window(ModelParams(2.0, 0.3))
        bad = w.elements.copy()
        bad[0, 0] = -1.0
        broken = type(w)(half_width=w.half_width, elements=bad, truncated_mass=0.0)
        with pytest.raises(NumericalError):
            eigen_spectrum(broken)


class TestEntropy:
    def test_zero_for_pure_states(self):
        assert window_entropy(ModelParams(9.0, 0.0)) < 1e-10
        assert window_entropy(ModelParams(0.0, 5.0)) < 1e-10
        assert entropy(ModelParams(9.0, 0.0)) == 0.0
        assert entropy(ModelParams(0.0, 5.0)) == 0.0

    @pytest.mark.parametrize("tprime,r_d", [(0.0, 0.0), (5.0, 0.5)])
    def test_rejects_nonpositive_eps_tail(self, tprime, r_d):
        with pytest.raises(ValueError, match="eps_tail"):
            entropy(ModelParams(tprime, r_d), eps_tail=0.0)

    def test_positive_and_monotone_in_dissipation(self):
        values = [entropy(ModelParams(5.0, r)) for r in [0.1, 0.5, 1.0, 2.0]]
        assert values[0] > 0.0
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounded_by_window_dimension(self):
        p = ModelParams(10.0, 5.0)
        half, _ = window_half_width(p)
        assert window_entropy(p) < math.log(2 * half + 1)
        assert entropy(p) < math.log(2 * half + 1)

    def test_increases_with_time(self):
        values = [entropy(ModelParams(t, 0.3)) for t in [1.0, 3.0, 6.0]]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestAsymptotics:
    def test_two_level_entropy_limits(self):
        # the Skellam entropy grows as (1/2) ln(2 pi e x) - 1/(48 x^2);
        # the correction is 2e-14 at x = 1e6
        assert entropy(ModelParams(1.0, 0.0)) == 0.0
        assert entropy(ModelParams(1e6, 1.0)) == pytest.approx(
            0.5 * math.log(2.0 * math.pi * math.e * 1e6), abs=1e-12
        )

    @pytest.mark.parametrize(
        "tprime,r_d", [(100.0, 0.005), (0.5, 0.01), (10.0, 1.0), (31.8, 10.0), (40.0, 2.0)]
    )
    def test_exact_spectrum_entropy_matches_eigensolve(self, tprime, r_d):
        p = ModelParams(tprime, r_d)
        assert abs(entropy(p) - window_entropy(p)) < 1e-9

    def test_spectrum_is_skellam_pmf(self):
        # rho = sum_n e^{-x} I_n(x) |psi_n><psi_n| with orthonormal psi_n
        p = ModelParams(12.0, 0.25)
        vals = eigen_spectrum(build_window(p)).eigenvalues
        weights = np.sort(ive(np.arange(-30, 31), p.x))[::-1]
        assert np.max(np.abs(vals[:20] - weights[:20])) < 1e-12

    def test_small_dissipation_law(self):
        p = ModelParams(1.0, 0.01)
        assert entropy_small_dissipation(p) == pytest.approx(-0.01 * math.log(0.01))
        assert entropy_small_dissipation(ModelParams(0.0, 0.0)) == 0.0
        with pytest.warns(UserWarning):
            entropy_small_dissipation(ModelParams(10.0, 1.0))
