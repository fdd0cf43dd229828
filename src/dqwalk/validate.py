"""Self-validation suite: series vs quadrature, marginals, consistency.

Each check returns records with the measured residual, its bound and
``covers``: the production function the record checks (``"core.purity"``),
or None for a self-check of an oracle.  Every check here is the one
implementation of its comparison; the acceptance tests call these.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import core, fourier, spectral, wigner
from .bessel import bessel_i_scaled_orders
from .core import ModelParams
from .exceptions import QuadratureLimitError

FAST_PARAM_SETS = [(1.0, 0.0), (4.0, 0.5), (8.0, 2.0), (10.0, 10.0)]

#: (t', r_D) grid of the normalization, Hermiticity and variance checks
T_GRID = [1.0, 5.0, 10.0, 20.0, 40.0]
RD_GRID = [0.0, 0.05, 0.5, 1.0, 5.0, 10.0]


def _record(name: str, value: float | None, tolerance: float, covers: str | None,
            **extra) -> dict:
    """One check's record; a ``value`` of None (no residual) fails.
    ``covers`` names the production function checked, or is None."""
    rec = {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": value is not None and bool(value < tolerance),
        "covers": covers,
    }
    rec.update(extra)
    return rec


def _window_profile(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Sites of the mass-complete window and their probabilities."""
    half, _ = spectral.window_half_width(p)
    s = np.arange(-half, half + 1)
    return s, core.probability_profile(s, p, core.truncation_for(p))


def check_oracle_equivalence(quad_nodes: int = fourier.NODES_DEFAULT) -> list[dict]:
    """Max series-vs-quadrature deviation over s1, s2 in [-20, 20], and
    ``probability_profile`` against the quadrature block's diagonal.

    A parameter set past the quadrature's validity ceiling gives one
    failed record with the ceiling as its ``reason``; the other sets and
    checks still run.
    """
    records = []
    sites = np.arange(-20, 21)
    spec = fourier.QuadratureSpec(nodes_per_axis=quad_nodes)
    for tprime, r_d in FAST_PARAM_SETS:
        p = ModelParams(tprime=tprime, r_d=r_d)
        name = f"oracle_equivalence(t'={tprime},r_d={r_d})"
        try:
            quad_block = fourier.density_block_quadrature(sites, p, spec)
        except QuadratureLimitError as exc:
            records.append(_record(name, None, 1e-9, None, reason=str(exc)))
            continue
        window = spectral.build_window(p)
        lo = window.half_width - 20
        hi = window.half_width + 21
        series_block = window.elements[lo:hi, lo:hi]
        dev = float(np.abs(series_block - quad_block).max())
        records.append(_record(name, dev, 1e-9, None))
        probs = core.probability_profile(sites, p, core.truncation_for(p))
        dev = float(np.abs(probs - quad_block.diagonal().real).max())
        records.append(_record(
            f"probability_profile(t'={tprime},r_d={r_d})", dev, 1e-9, "core.probability_profile"
        ))
    return records


def check_normalization_hermiticity() -> list[dict]:
    records = []
    for tprime, r_d in [(t, r) for t in T_GRID for r in RD_GRID] + [(31.8, 0.0)]:
        window = spectral.build_window(ModelParams(tprime=tprime, r_d=r_d))
        norm_dev = abs(window.trace() - 1.0)
        herm_dev = float(np.abs(window.elements - window.elements.conj().T).max())
        records.append(_record(f"normalization(t'={tprime},r_d={r_d})", norm_dev, 1e-10, None))
        records.append(_record(f"hermiticity(t'={tprime},r_d={r_d})", herm_dev, 1e-12, None))
    return records


def check_variance_law() -> list[dict]:
    """Second moment of the windowed profile against t'^2/2 + r_D t',
    as a relative error."""
    records = []
    for tprime in T_GRID:
        for r_d in RD_GRID:
            p = ModelParams(tprime=tprime, r_d=r_d)
            s, probs = _window_profile(p)
            second = float((s.astype(float) ** 2 * probs).sum())
            rel = abs(second - core.variance(p)) / core.variance(p)
            name = f"variance_law(t'={tprime},r_d={r_d})"
            records.append(_record(name, rel, 1e-8, "core.variance"))
    return records


def check_characteristic_function() -> list[dict]:
    """G(xi) against the lattice sum of P_s cos(xi s) over the window."""
    records = []
    for tprime in [1.0, 5.0, 10.0]:
        for r_d in RD_GRID:
            p = ModelParams(tprime=tprime, r_d=r_d)
            s, probs = _window_profile(p)
            dev = max(
                abs(core.characteristic_function(xi, p) - float((probs * np.cos(xi * s)).sum()))
                for xi in [0.3, 1.0, 2.5]
            )
            records.append(_record(
                f"characteristic_function(t'={tprime},r_d={r_d})", dev, 1e-10,
                "core.characteristic_function",
            ))
    return records


def check_wigner_marginals() -> list[dict]:
    records = []
    for tprime, r_d in [(2.0, 0.3), (10.0, 1.0)]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        half, _ = spectral.window_half_width(p)
        trunc = core.truncation_for(p)
        grid = wigner.wigner_grid(-half, half, p, wigner.k_grid(), trunc)
        probs = core.probability_profile(grid.sites, p, trunc)
        dev_a = float(np.abs(wigner.position_marginal(grid) - probs).max())
        dev_b = float(
            np.abs(wigner.momentum_marginal(grid) - 1.0 / (2.0 * math.pi)).max()
        )
        dev_total = abs(wigner.total_mass(grid) - 1.0)
        at = f"(t'={tprime},r_d={r_d})"
        for name, dev, bound in [
            ("wigner_marginal_position", dev_a, 1e-8),
            ("wigner_marginal_momentum", dev_b, 1e-10),
            ("wigner_total_mass", dev_total, 1e-8),
        ]:
            records.append(_record(name + at, dev, bound, "wigner.wigner_grid"))
    return records


def check_purity_consistency() -> list[dict]:
    records = []
    for tprime, r_d in [(4.0, 0.5), (10.0, 2.0), (20.0, 1.0)]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = spectral.build_window(p)
        windowed = float(np.sum(np.abs(window.elements) ** 2))
        dev = abs(core.purity(p) - windowed)
        name = f"purity_consistency(t'={tprime},r_d={r_d})"
        records.append(_record(name, dev, 1e-8, "core.purity"))
    return records


def check_convolution_identity() -> list[dict]:
    p = ModelParams(tprime=5.0, r_d=0.5)
    trunc = core.truncation_for(p)
    dev = 0.0
    for s in range(-10, 10):
        for k in np.linspace(-math.pi, math.pi, 20):
            direct = wigner.wigner_value(s, float(k), p, trunc)
            conv = wigner.wigner_convolution(s, float(k), p, trunc)
            dev = max(dev, abs(direct - conv))
    return [_record("wigner_convolution_identity(t'=5,r_d=0.5)", dev, 1e-9, None)]


def check_asymptotic_entropy() -> list[dict]:
    """Exact-spectrum entropy against the windowed-eigensolve oracle.

    The two are the same quantity (see ``spectral.entropy``), so the bound
    is a roundoff bound on the relative gap.
    """
    p = ModelParams(tprime=100.0, r_d=0.005)
    windowed = spectral.window_entropy(p)
    exact = spectral.entropy(p)
    rel = abs(windowed - exact) / exact
    name = "asymptotic_entropy_agreement(t'=100,r_d=0.005)"
    return [_record(name, rel, 1e-9, "spectral.entropy")]


def check_skellam_spectrum() -> list[dict]:
    """Leading eigenvalues of the density window against the sorted
    Skellam weights e^{-x} I_n(x), the exact spectrum ``spectral.entropy``
    sums over."""
    p = ModelParams(tprime=12.0, r_d=0.25)
    vals = spectral.eigen_spectrum(spectral.build_window(p)).eigenvalues[:20]
    weights = np.sort(bessel_i_scaled_orders(np.arange(-30, 31), p.x))[::-1][:20]
    dev = float(np.abs(vals - weights).max())
    return [_record("skellam_spectrum(t'=12,r_d=0.25)", dev, 1e-12, None)]


def run_checks(level: str = "fast", quad_nodes: int = fourier.NODES_DEFAULT) -> dict:
    """Run the validation suite; level 'full' adds the windowed-eigensolve
    checks of the exact spectrum: its entropy (slow) and its leading
    eigenvalues."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    start = time.perf_counter()
    records = []
    records += check_oracle_equivalence(quad_nodes)
    records += check_normalization_hermiticity()
    records += check_variance_law()
    records += check_characteristic_function()
    records += check_wigner_marginals()
    records += check_purity_consistency()
    records += check_convolution_identity()
    if level == "full":
        records += check_asymptotic_entropy()
        records += check_skellam_spectrum()
    return {
        "level": level,
        "checks": records,
        "passed": all(r["passed"] for r in records),
        "wall_clock_seconds": time.perf_counter() - start,
    }
