"""Self-validation suite: production routes against the ring, and the
Wigner marginals.  Each check returns records with the measured residual,
its bound and ``covers``: the production function the record checks
(``"core.purity"``), or None for a self-check of an oracle.  Every check
here is the one implementation of its comparison; the acceptance tests
call these.  The density-matrix oracle is :func:`dqwalk.fourier.ring_window`,
the exact N-site ring with no Bessel row; its records state ``nodes`` and
``image_bound``, the most an element can differ from the infinite line.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from . import core, fourier, spectral, wigner
from .bessel import bessel_i_scaled_orders
from .core import ModelParams

FAST_PARAM_SETS = [(1.0, 0.0), (4.0, 0.5), (8.0, 2.0), (10.0, 10.0)]

#: (t', r_D) grid of the normalization, Hermiticity and variance checks
T_GRID = [1.0, 5.0, 10.0, 20.0, 40.0]
RD_GRID = [0.0, 0.05, 0.5, 1.0, 5.0, 10.0]

#: each ring window is built once per process: the checks share about 40 points
_ring_window = functools.lru_cache(maxsize=64)(fourier.ring_window)


def _record(name: str, value: float, tolerance: float, covers: str | None,
            window: fourier.RingWindow | None = None) -> dict:
    """One check's record; one computed on a ring ``window`` states the
    ring's ``nodes`` and ``image_bound``."""
    rec = {"name": name, "value": value, "tolerance": tolerance,
           "passed": bool(value < tolerance), "covers": covers}
    if window is not None:
        rec.update(nodes=window.nodes, image_bound=window.image_bound)
    return rec


def ring_entropy(window: fourier.RingWindow) -> float:
    """-sum lambda ln lambda over the eigenvalues lambda > 0 of a ring
    window: the eigensolve oracle of :func:`dqwalk.spectral.entropy`."""
    vals = np.linalg.eigvalsh(window.elements)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log(vals)).sum())


def check_oracle_equivalence() -> list[dict]:
    """At each fast point, the production Wigner grid against the defining
    sum over a ring window, and ``probability_profile`` against its diagonal.
    The window is twice the mass-complete half-width L, so for |s| <= 3 <=
    L/2 each site pair (s + s', s - s') the sum leaves out lies outside
    [-L, L] at both ends: the pairs add up to at most the mass outside."""
    records = []
    for tprime, r_d in FAST_PARAM_SETS:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = _ring_window(p, 2 * fourier.half_width(p))
        trunc = core.truncation_for(p)
        grid = wigner.wigner_grid(-3, 3, p, np.array([0.0, 1.3, math.pi]), trunc)
        dev = float(max(
            abs(grid.values[i, j] - wigner.wigner_from_density(s, k, window))
            for i, s in enumerate(grid.sites.tolist())
            for j, k in enumerate(grid.k_nodes.tolist())
        ))
        at = f"(t'={tprime},r_d={r_d})"
        records.append(_record(f"wigner_defining_sum{at}", dev, 1e-9, "wigner.wigner_grid", window))
        probs = core.probability_profile(window.sites, p, trunc)
        dev = float(np.abs(probs - window.elements.diagonal().real).max())
        records.append(_record(f"probability_profile{at}", dev, 1e-9, "core.probability_profile",
                               window))
    return records


def check_normalization_hermiticity() -> list[dict]:
    records = []
    for tprime, r_d in [(t, r) for t in T_GRID for r in RD_GRID] + [(31.8, 0.0)]:
        window = _ring_window(ModelParams(tprime=tprime, r_d=r_d))
        m = window.elements
        norm_dev = abs(float(np.trace(m).real) - 1.0)
        herm_dev = float(np.abs(m - m.conj().T).max())
        at = f"(t'={tprime},r_d={r_d})"
        records.append(_record(f"normalization{at}", norm_dev, 1e-10, None, window))
        records.append(_record(f"hermiticity{at}", herm_dev, 1e-12, None, window))
    return records


def check_variance_law() -> list[dict]:
    """Second moment of the ring's diagonal against t'^2/2 + r_D t', as a
    relative error."""
    records = []
    for tprime, r_d in [(t, r) for t in T_GRID for r in RD_GRID]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = _ring_window(p)
        second = float((window.sites**2 * window.elements.diagonal().real).sum())
        rel = abs(second - core.variance(p)) / core.variance(p)
        records.append(_record(f"variance_law(t'={tprime},r_d={r_d})", rel, 1e-8,
                               "core.variance", window))
    return records


def check_characteristic_function() -> list[dict]:
    """G(xi) against the lattice sum of P_s cos(xi s) over the ring's diagonal."""
    records = []
    for tprime, r_d in [(t, r) for t in [1.0, 5.0, 10.0] for r in RD_GRID]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        window = _ring_window(p)
        s, probs = window.sites, window.elements.diagonal().real
        dev = max(
            abs(core.characteristic_function(xi, p) - float((probs * np.cos(xi * s)).sum()))
            for xi in [0.3, 1.0, 2.5]
        )
        records.append(_record(f"characteristic_function(t'={tprime},r_d={r_d})", dev, 1e-10,
                               "core.characteristic_function", window))
    return records


def check_wigner_marginals() -> list[dict]:
    records = []
    for tprime, r_d in [(2.0, 0.3), (10.0, 1.0)]:
        p = ModelParams(tprime=tprime, r_d=r_d)
        half = fourier.half_width(p)
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
        window = _ring_window(p)
        dev = abs(core.purity(p) - float(np.sum(np.abs(window.elements) ** 2)))
        name = f"purity_consistency(t'={tprime},r_d={r_d})"
        records.append(_record(name, dev, 1e-8, "core.purity", window))
    return records


def check_asymptotic_entropy() -> list[dict]:
    """Exact-spectrum entropy against the eigensolve of the ring window;
    the two are the same quantity (see ``spectral.entropy``), so the bound
    is a roundoff bound on the relative gap."""
    p = ModelParams(tprime=100.0, r_d=0.005)
    window = _ring_window(p)
    exact = spectral.entropy(p)
    rel = abs(ring_entropy(window) - exact) / exact
    name = "asymptotic_entropy_agreement(t'=100,r_d=0.005)"
    return [_record(name, rel, 1e-9, "spectral.entropy", window)]


def check_skellam_spectrum() -> list[dict]:
    """Leading eigenvalues of the ring window against the sorted Skellam
    weights e^{-x} I_n(x), the exact spectrum ``spectral.entropy`` sums
    over."""
    p = ModelParams(tprime=12.0, r_d=0.25)
    window = _ring_window(p)
    weights = np.sort(bessel_i_scaled_orders(np.arange(-30, 31), p.x))[::-1][:20]
    dev = float(np.abs(np.linalg.eigvalsh(window.elements)[::-1][:20] - weights).max())
    return [_record("skellam_spectrum(t'=12,r_d=0.25)", dev, 1e-12, None, window)]


def run_checks(level: str = "fast") -> dict:
    """Run the validation suite; level 'full' adds the eigensolve checks of
    the exact spectrum on the ring window: its entropy and its leading
    eigenvalues."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    start = time.perf_counter()
    records = []
    records += check_oracle_equivalence()
    records += check_normalization_hermiticity()
    records += check_variance_law()
    records += check_characteristic_function()
    records += check_wigner_marginals()
    records += check_purity_consistency()
    if level == "full":
        records += check_asymptotic_entropy()
        records += check_skellam_spectrum()
    return {
        "level": level,
        "checks": records,
        "passed": all(r["passed"] for r in records),
        "wall_clock_seconds": time.perf_counter() - start,
    }
