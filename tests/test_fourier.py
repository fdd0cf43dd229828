import cmath
import math

import numpy as np
import pytest

from dqwalk.core import ModelParams, density_element, truncation_for
from dqwalk.exceptions import QuadratureLimitError
from dqwalk.fourier import (
    QuadratureSpec,
    density_block_quadrature,
    propagator_exponent,
)

TWO_PI = 2.0 * math.pi


def element_quadrature(s1, s2, p, q=QuadratureSpec()):
    """<s1|rho|s2> by quadrature: entry [0, 1] of the block over [s1, s2]."""
    return density_block_quadrature([s1, s2], p, q)[0, 1]


class TestQuadratureSpec:
    def test_nodes_cover_zone_without_duplicate_endpoint(self):
        k = QuadratureSpec(nodes_per_axis=16).nodes()
        assert k.size == 16
        assert k[0] == -math.pi
        assert k[-1] < math.pi
        assert np.allclose(np.diff(k), TWO_PI / 16)

    def test_validity_ceiling(self):
        assert QuadratureSpec(nodes_per_axis=256).max_tprime() == 32.0

    def test_rejects_bad_node_counts(self):
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=8)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_axis=17)


class TestPropagatorExponent:
    def test_vanishes_on_diagonal(self):
        p = ModelParams(1.0, 3.0)
        for k in [0.0, 0.7, -2.0]:
            assert propagator_exponent(k, k, p) == 0.0

    def test_real_part_nonpositive(self):
        p = ModelParams(1.0, 2.5)
        rng = np.random.default_rng(7)
        for k1, k2 in rng.uniform(-math.pi, math.pi, size=(50, 2)):
            f = propagator_exponent(float(k1), float(k2), p)
            assert f.real <= 0.0

    def test_conjugate_under_swap(self):
        p = ModelParams(1.0, 0.8)
        f = propagator_exponent(0.3, -1.1, p)
        assert propagator_exponent(-1.1, 0.3, p) == f.conjugate()

    def test_example_value(self):
        p = ModelParams(1.0, 2.0)
        f = propagator_exponent(0.0, math.pi, p)
        assert f == pytest.approx(complex(-4.0, 2.0), abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            propagator_exponent(float("nan"), 0.0, ModelParams(1.0, 0.0))
        with pytest.raises(ValueError):
            propagator_exponent(np.array([0.0, np.inf]), 0.0, ModelParams(1.0, 0.0))

    def test_broadcasts_elementwise(self):
        # the quadrature evaluates F on the node grid in one call
        p = ModelParams(1.0, 0.8)
        k = QuadratureSpec(nodes_per_axis=16).nodes()
        grid = propagator_exponent(k[:, None], k[None, :], p)
        assert grid.shape == (16, 16)
        for i, j in [(0, 0), (3, 11), (15, 2)]:
            assert grid[i, j] == propagator_exponent(float(k[i]), float(k[j]), p)


class TestDensityQuadrature:
    def test_initial_condition(self):
        p = ModelParams(0.0, 0.0)
        assert element_quadrature(0, 0, p) == pytest.approx(1.0, abs=1e-13)
        assert abs(element_quadrature(2, 0, p)) < 1e-13

    @pytest.mark.parametrize("tprime,r_d", [(1.0, 0.0), (4.0, 0.5), (8.0, 2.0), (10.0, 10.0)])
    def test_agrees_with_series(self, tprime, r_d):
        p = ModelParams(tprime, r_d)
        trunc = truncation_for(p)
        for s1, s2 in [(0, 0), (3, -2), (-5, 5), (7, 6)]:
            series = density_element(s1, s2, p, trunc)
            quad = element_quadrature(s1, s2, p)
            assert abs(series - quad) < 1e-11

    def test_block_trace_and_hermiticity(self):
        p = ModelParams(5.0, 1.0)
        half = 40
        block = density_block_quadrature(np.arange(-half, half + 1), p)
        assert abs(np.trace(block).real - 1.0) < 1e-10
        assert np.max(np.abs(block - block.conj().T)) < 1e-12

    def test_ceiling_enforced(self):
        p = ModelParams(40.0, 0.1)
        with pytest.raises(QuadratureLimitError):
            element_quadrature(0, 0, p)
        # more nodes raise the ceiling
        spec = QuadratureSpec(nodes_per_axis=512)
        val = element_quadrature(0, 0, p, spec)
        assert 0.0 < val.real < 1.0

    def test_spectral_convergence(self):
        # doubling the nodes should change nothing at machine precision
        p = ModelParams(6.0, 0.7)
        coarse = element_quadrature(2, -1, p, QuadratureSpec(nodes_per_axis=128))
        fine = element_quadrature(2, -1, p, QuadratureSpec(nodes_per_axis=256))
        assert abs(coarse - fine) < 1e-13


class TestMomentumDiagonal:
    def test_consistent_with_quadrature_propagator(self):
        # direct check that exp(F t) is 1 on the diagonal
        p = ModelParams(9.0, 2.0)
        f = propagator_exponent(0.4, 0.4, p)
        assert cmath.exp(p.tprime * f) == 1.0 + 0.0j


class TestValidationSuite:
    def test_fast_level_passes(self):
        from dqwalk.validate import run_checks

        report = run_checks("fast")
        failing = [r["name"] for r in report["checks"] if not r["passed"]]
        assert report["passed"], f"failing checks: {failing}"
        assert report["level"] == "fast"
        assert report["wall_clock_seconds"] > 0.0

    def test_rejects_unknown_level(self):
        from dqwalk.validate import run_checks

        with pytest.raises(ValueError):
            run_checks("exhaustive")
