"""Self-validation suite: series vs quadrature, marginals, consistency.

Each check returns a record with the measured residual and its bound, so
the CLI can emit a machine-parsable report and a meaningful exit code.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import core, fourier, spectral, wigner
from .bessel import bessel_i_scaled_orders
from .core import ModelParams

FAST_PARAM_SETS = [(1.0, 0.0), (4.0, 0.5), (8.0, 2.0), (10.0, 10.0)]


def _record(name: str, value: float, tolerance: float, **extra) -> dict:
    rec = {
        "name": name,
        "value": value,
        "tolerance": tolerance,
        "passed": bool(value < tolerance),
    }
    rec.update(extra)
    return rec


def check_oracle_equivalence(quad_nodes: int = fourier.NODES_DEFAULT) -> list[dict]:
    """Max series-vs-quadrature deviation over s1, s2 in [-20, 20]."""
    records = []
    sites = np.arange(-20, 21)
    spec = fourier.QuadratureSpec(nodes_per_axis=quad_nodes)
    for tprime, r_d in FAST_PARAM_SETS:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = spectral.build_window(p)
        lo = window.half_width - 20
        hi = window.half_width + 21
        series_block = window.elements[lo:hi, lo:hi]
        quad_block = fourier.density_block_quadrature(sites, p, spec)
        dev = float(np.abs(series_block - quad_block).max())
        records.append(
            _record(f"oracle_equivalence(t'={tprime},r_d={r_d})", dev, 1e-9)
        )
    return records


def check_normalization_hermiticity() -> list[dict]:
    records = []
    for tprime, r_d in [(5.0, 0.05), (20.0, 1.0), (31.8, 0.0), (40.0, 10.0)]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = spectral.build_window(p)
        norm_dev = abs(window.trace() - 1.0)
        herm_dev = float(np.abs(window.elements - window.elements.conj().T).max())
        records.append(
            _record(f"normalization(t'={tprime},r_d={r_d})", norm_dev, 1e-10)
        )
        records.append(
            _record(f"hermiticity(t'={tprime},r_d={r_d})", herm_dev, 1e-12)
        )
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
        records.append(_record(f"wigner_marginal_position(t'={tprime},r_d={r_d})", dev_a, 1e-8))
        records.append(_record(f"wigner_marginal_momentum(t'={tprime},r_d={r_d})", dev_b, 1e-10))
        records.append(_record(f"wigner_total_mass(t'={tprime},r_d={r_d})", dev_total, 1e-8))
    return records


def check_purity_consistency() -> list[dict]:
    records = []
    for tprime, r_d in [(4.0, 0.5), (10.0, 2.0)]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = spectral.build_window(p)
        windowed = float(np.sum(np.abs(window.elements) ** 2))
        dev = abs(core.purity(p) - windowed)
        records.append(_record(f"purity_consistency(t'={tprime},r_d={r_d})", dev, 1e-8))
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
    return [_record("wigner_convolution_identity(t'=5,r_d=0.5)", dev, 1e-9)]


def check_asymptotic_entropy() -> list[dict]:
    """Exact-spectrum entropy against the windowed-eigensolve oracle.

    The two are the same quantity (see ``spectral.entropy``), so the bound
    is a roundoff bound on the relative gap.
    """
    p = ModelParams(tprime=100.0, r_d=0.005)
    windowed = spectral.window_entropy(p)
    exact = spectral.entropy(p)
    rel = abs(windowed - exact) / exact
    return [_record("asymptotic_entropy_agreement(t'=100,r_d=0.005)", rel, 1e-9)]


def check_skellam_spectrum() -> list[dict]:
    """Leading eigenvalues of the density window against the sorted
    Skellam weights e^{-x} I_n(x), the exact spectrum ``spectral.entropy``
    sums over."""
    p = ModelParams(tprime=12.0, r_d=0.25)
    vals = spectral.eigen_spectrum(spectral.build_window(p)).eigenvalues[:20]
    weights = np.sort(bessel_i_scaled_orders(np.arange(-30, 31), p.x))[::-1][:20]
    dev = float(np.abs(vals - weights).max())
    return [_record("skellam_spectrum(t'=12,r_d=0.25)", dev, 1e-12)]


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
