import math

import numpy as np
import pytest
from scipy.special import ive

from dqwalk.core import ModelParams, probability_profile, purity, truncation_for
from dqwalk.fourier import MASS_TOL, half_width, ring_window, tail_bound
from dqwalk.spectral import entropy
from dqwalk.validate import ring_entropy


def descending_eigenvalues(window):
    """Eigenvalues of a ring window, descending."""
    return np.linalg.eigvalsh(window.elements)[::-1]


def eigensolve_entropy(p):
    """Entropy of the eigensolved ring window, the oracle of ``entropy``."""
    return ring_entropy(ring_window(p))


class TestWindowSizing:
    """The mass-complete window that the spectral oracle eigensolves."""

    def test_floor_at_degenerate_point(self):
        # at t' = r_D = 0 all the mass sits on site 0
        assert half_width(ModelParams(0.0, 0.0)) == 0

    @pytest.mark.parametrize("tprime,r_d", [(5.0, 0.05), (20.0, 1.0), (31.8, 0.0), (10.0, 10.0)])
    def test_mass_bound_holds(self, tprime, r_d):
        p = ModelParams(tprime, r_d)
        half = half_width(p)
        assert tail_bound(p, half) <= MASS_TOL
        prof = probability_profile(np.arange(-half, half + 1), p, truncation_for(p))
        assert 1.0 - prof.sum() < MASS_TOL + 1e-14


class TestBuildWindow:
    """The window itself: the block of the exact ring, sized by the tail bound."""

    def test_trace_and_hermiticity(self):
        for tprime, r_d in [(5.0, 0.05), (20.0, 1.0), (31.8, 0.0)]:
            m = ring_window(ModelParams(tprime, r_d)).elements
            assert abs(np.trace(m).real - 1.0) < 1e-10
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_diagonal_is_probability_profile(self):
        p = ModelParams(4.0, 0.5)
        w = ring_window(p)
        probs = probability_profile(w.sites, p, truncation_for(p))
        assert np.max(np.abs(np.diag(w.elements).real - probs)) < 1e-13

    def test_matches_elementwise_series(self):
        from dqwalk.core import density_element

        p = ModelParams(3.0, 0.7)
        w = ring_window(p)
        h = w.half_width
        for s1, s2 in [(0, 0), (2, -1), (-4, 3), (5, 5)]:
            assert abs(
                w.elements[s1 + h, s2 + h] - density_element(s1, s2, p, truncation_for(p))
            ) < 1e-12

    def test_purity_from_elements(self):
        p = ModelParams(6.0, 0.8)
        frobenius = float(np.sum(np.abs(ring_window(p).elements) ** 2))
        assert abs(frobenius - purity(p)) < 1e-8


class TestSpectrum:
    def test_pure_state_spectrum(self):
        vals = descending_eigenvalues(ring_window(ModelParams(7.0, 0.0)))
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals[1:] < 1e-12)

    def test_probabilities_sorted_and_normalized(self):
        vals = descending_eigenvalues(ring_window(ModelParams(10.0, 1.0)))
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(vals >= -1e-15)  # positive semidefinite up to roundoff
        assert vals.sum() == pytest.approx(1.0, abs=1e-14)

    def test_purity_identity(self):
        p = ModelParams(5.0, 0.4)
        vals = descending_eigenvalues(ring_window(p))
        assert float((vals**2).sum()) == pytest.approx(purity(p), abs=1e-9)


class TestEntropy:
    def test_zero_for_pure_states(self):
        assert eigensolve_entropy(ModelParams(9.0, 0.0)) < 1e-10
        assert eigensolve_entropy(ModelParams(0.0, 5.0)) < 1e-10
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
        half = half_width(p)
        assert eigensolve_entropy(p) < math.log(2 * half + 1)
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
        assert abs(entropy(p) - eigensolve_entropy(p)) < 1e-9

    def test_spectrum_is_skellam_pmf(self):
        # rho = sum_n e^{-x} I_n(x) |psi_n><psi_n| with orthonormal psi_n
        p = ModelParams(12.0, 0.25)
        vals = descending_eigenvalues(ring_window(p))
        weights = np.sort(ive(np.arange(-30, 31), p.x))[::-1]
        assert np.max(np.abs(vals[:20] - weights[:20])) < 1e-12

    def test_small_dissipation_law(self):
        # w_0 = 1 - x + O(x^2), w_{+/-1} = x/2 - x^2/2 + O(x^3) and
        # w_{+/-2} = x^2/8 + O(x^3) give S = -x ln x + x (1 + ln 2)
        # + (1/2) x^2 ln x + O(x^2): the gap to the first two terms is
        # about half of x^2 |ln x| (0.59 of it at x = 1e-2)
        for x in [1e-2, 1e-4, 1e-6]:
            law = -x * math.log(x) + x * (1.0 + math.log(2.0))
            assert abs(entropy(ModelParams(1.0, x)) - law) <= x * x * abs(math.log(x))
