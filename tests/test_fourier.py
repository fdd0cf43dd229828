import cmath
import math

import numpy as np
import pytest

from dqwalk import fourier
from dqwalk.bessel import bessel_j_orders
from dqwalk.core import (
    I_POWERS,
    ModelParams,
    density_element,
    probability_profile,
    truncation_for,
)
from dqwalk.exceptions import QuadratureLimitError
from dqwalk.fourier import (
    IMAGE_TOL,
    MASS_TOL,
    QuadratureSpec,
    density_block_quadrature,
    half_width,
    image_bound,
    propagator_exponent,
    ring_size,
    ring_window,
    tail_bound,
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
        # the image bound, not t', decides: the 16-site ring cannot hold
        # [-20, 20] even at t' = 1, and 256 sites hold t' = 40 near the origin
        assert image_bound(np.arange(-20, 21), ModelParams(1.0, 0.0), 16) > 1.0
        assert image_bound(np.arange(-3, 4), ModelParams(1.0, 0.0), 16) < 1e-10
        assert image_bound(np.array([0]), ModelParams(40.0, 0.1), 256) < IMAGE_TOL

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
        # the sites 16 and -16 alias onto site 0, where P_0 = J_0(1)^2 = 0.586
        with pytest.raises(QuadratureLimitError, match="image bound"):
            density_block_quadrature(np.arange(-20, 21), ModelParams(1.0, 0.0), QuadratureSpec(16))
        p = ModelParams(40.0, 0.1)
        series = density_element(0, 0, p, truncation_for(p))
        assert abs(element_quadrature(0, 0, p) - series) < 1e-11

    def test_spectral_convergence(self):
        # doubling the nodes should change nothing at machine precision
        p = ModelParams(6.0, 0.7)
        coarse = element_quadrature(2, -1, p, QuadratureSpec(nodes_per_axis=128))
        fine = element_quadrature(2, -1, p, QuadratureSpec(nodes_per_axis=256))
        assert abs(coarse - fine) < 1e-13


def line_block(s_values, p):
    """<s1|rho|s2> of the infinite line from the Bessel series,
    i^(s1-s2) sum_n J_{s1+n} J_{s2+n} w_n; reference only."""
    trunc = truncation_for(p)
    a = bessel_j_orders(np.asarray(s_values)[:, None] + trunc.orders()[None, :], p.tprime)
    phase = I_POWERS[np.subtract.outer(s_values, s_values) % 4]
    return phase * ((a * trunc.weights) @ a.T)


class TestImageBound:
    @pytest.mark.parametrize("tprime,r_d", [
        (0.0, 0.0), (0.0, 3.0), (2.0, 0.0), (31.8, 0.0), (5.0, 0.5), (40.0, 10.0),
        (0.0, 10.0), (10.0, 100.0), (1000.0, 10.0),
    ])
    def test_tail_bound_covers_the_profile(self, tprime, r_d):
        # the closed form bounds the mass outside [-L, L] that the series leaves there
        p = ModelParams(tprime, r_d)
        trunc = truncation_for(p)
        for half in [0, 1, 5, 20, int(tprime), int(tprime + 3.0 * math.sqrt(p.x)), half_width(p)]:
            probs = probability_profile(np.arange(-half, half + 1), p, trunc)
            assert tail_bound(p, half) >= 1.0 - probs.sum() - 1e-15

    @pytest.mark.parametrize("tprime,r_d", [(0.0, 0.0), (1.0, 0.0), (40.0, 10.0), (100.0, 0.005)])
    def test_half_width_is_the_smallest_within_mass_tol(self, tprime, r_d):
        p = ModelParams(tprime, r_d)
        half = half_width(p)
        assert tail_bound(p, half) <= MASS_TOL
        assert half == 0 or tail_bound(p, half - 1) > MASS_TOL

    # ROADMAP item 16's table: (t', r_D), ring size, sites (None: the whole ring)
    @pytest.mark.parametrize("tprime,r_d,nodes,half", [
        (1.0, 0.0, 16, 20), (1.0, 0.0, 16, 3), (4.0, 0.5, 16, 3), (30.0, 0.5, 64, 20),
        (200.0, 0.0, 256, 20), (40.0, 10.0, 256, None), (40.0, 10.0, 512, None),
        (12.0, 0.25, 64, None), (100.0, 0.005, 256, None),
    ])
    def test_bound_covers_the_gap_to_the_line(self, tprime, r_d, nodes, half, monkeypatch):
        monkeypatch.setattr(fourier, "IMAGE_TOL", math.inf)  # measure refused blocks too
        p = ModelParams(tprime, r_d)
        sites = np.arange(-nodes // 2, nodes // 2) if half is None else np.arange(-half, half + 1)
        ring = density_block_quadrature(sites, p, QuadratureSpec(nodes))
        gap = float(np.abs(ring - line_block(sites, p)).max())
        # the series reference is itself good to about 1e-15
        assert gap <= image_bound(sites, p, nodes) + 1e-14

    def test_ring_size_is_the_smallest_within_image_tol(self):
        p = ModelParams(40.0, 10.0)
        sites = np.arange(-half_width(p), half_width(p) + 1)
        nodes = ring_size(sites, p)
        assert image_bound(sites, p, nodes) <= IMAGE_TOL < image_bound(sites, p, nodes // 2)

    def test_ring_size_refuses_past_max_nodes(self):
        with pytest.raises(QuadratureLimitError, match="no ring"):
            ring_size(np.arange(-1500, 1501), ModelParams(1000.0, 10.0))

    def test_ring_window_is_the_mass_complete_block(self):
        p = ModelParams(8.0, 2.0)
        window = ring_window(p)
        assert window.half_width == half_width(p)
        assert window.image_bound == image_bound(window.sites, p, window.nodes) <= IMAGE_TOL
        ring = density_block_quadrature(window.sites, p, QuadratureSpec(window.nodes))
        assert np.array_equal(window.elements, ring)


class TestMasterEquation:
    @pytest.mark.parametrize("tprime,r_d", [(3.0, 0.4), (6.0, 1.5), (2.0, 0.0), (10.0, 1.0)])
    def test_ring_solves_the_lattice_master_equation(self, tprime, r_d):
        """The ring's density matrix solves

            d rho(s1, s2)/dt' = (i/2) [rho(s1+1, s2) + rho(s1-1, s2) - rho(s1, s2+1) - rho(s1, s2-1)]
                              + (r_D/2) [rho(s1+1, s2+1) + rho(s1-1, s2-1) - 2 rho(s1, s2)]

        with periodic indices, so on a block's interior the only error is
        that of the time difference.  The central difference D(h) is
        rho' + h^2 rho'''/6 + E(h), |E(h)| <= M h^4/120, where M bounds
        the entries of the fifth derivative; the Richardson combination
        (4 D(h/2) - D(h))/3 then misses rho' by at most M h^4/288.  The
        right-hand side L has max-entry norm at most 2 + 2 r_D and every
        entry of rho is at most 1, so M <= (2 + 2 r_D)^5.  Roundoff
        delta ~ 1e-15 per element adds about 3 delta/h, within 1e-12.
        Flipping the hopping term's sign leaves a residual of 1e-2 or more.
        """
        h = 1e-2
        p_end = ModelParams(tprime + h, r_d)
        half = half_width(p_end)
        sites = np.arange(-half - 1, half + 2)
        q = QuadratureSpec(ring_size(sites, p_end))

        def rho(t):
            return density_block_quadrature(sites, ModelParams(t, r_d), q)

        def central(step):
            return (rho(tprime + step) - rho(tprime - step)) / (2.0 * step)

        drho = ((4.0 * central(0.5 * h) - central(h)) / 3.0)[1:-1, 1:-1]
        r = rho(tprime)
        hopping = 0.5j * (r[2:, 1:-1] + r[:-2, 1:-1] - r[1:-1, 2:] - r[1:-1, :-2])
        dephasing = 0.5 * r_d * (r[2:, 2:] + r[:-2, :-2] - 2.0 * r[1:-1, 1:-1])
        bound = (2.0 + 2.0 * r_d) ** 5 * h**4 / 288.0 + 1e-12
        assert np.abs(drho - hopping - dephasing).max() <= bound
        assert np.abs(drho + hopping - dephasing).max() > bound


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
