"""Output checks for the benchmark, from references the production route does not use.

Each check reads back the CSV an invocation wrote and returns the worst
residual of every test as ``{name: residual}``.  The references are
closed-form identities, the Skellam entropy and the Brillouin-zone
quadrature of ``dqwalk.fourier``; none of them calls the Bessel-gather
route the CLI uses, so they stay valid when that route is replaced.
A CSV with the wrong shape or unparsable rows raises, which the caller
counts as a failed invocation.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy import special

TWO_PI = 2.0 * math.pi

#: Upper bound on each residual, at least 30 times the worst residual
#: measured over seeds 1 to 10 (``worst_residuals`` in bench/baseline.json).
TOLERANCES = {
    # |sum_s P_s - 1| per (t, r_d) profile
    "profile.mass": 1e-10,
    # |sum_s s^2 P_s - (t'^2/2 + r_D t')| / max(t'^2/2 + r_D t', 1) per profile
    "profile.second_moment": 1e-9,
    # |sum_s W(s, k) - 1/2pi| per k node
    "wigner.momentum_marginal": 1e-10,
    # |trapezoid_k sum_s W(s, k) - 1|
    "wigner.total_mass": 1e-10,
    # |W(s, k) - defining sum over the fourier-quadrature density block|
    "wigner.defining_sum": 1e-11,
    # |S - (-sum_n w_n ln w_n)|, w_n = e^{-x} I_n(x), x = r_D t'
    "entropy.skellam": 1e-9,
}


def read_csv(path: Path, n_cols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != n_cols:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected {n_cols}")
    return data


def _grid_residual(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation of CSV key columns from the requested grid."""
    if got.shape != want.shape:
        raise ValueError(f"CSV grid has shape {got.shape}, expected {want.shape}")
    return float(np.abs(got - want).max())


def check_profiles(path: Path, t_values, rd_values, s_lo: int, s_hi: int) -> dict:
    """Mass and second moment of every (r_d, t) profile of a prob/carpet CSV."""
    data = read_csv(path, 4)
    sites = np.arange(s_lo, s_hi + 1)
    rd, t = np.meshgrid(np.sort(rd_values), t_values, indexing="ij")
    n_prof = rd.size
    blocks = data.reshape(n_prof, sites.size, 4)
    key_dev = max(
        _grid_residual(blocks[:, 0, 0], t.ravel()),
        _grid_residual(blocks[:, 0, 1], rd.ravel()),
        _grid_residual(blocks[:, :, 2], np.broadcast_to(sites, (n_prof, sites.size))),
    )
    probs = blocks[:, :, 3]
    tt, rr = blocks[:, 0, 0], blocks[:, 0, 1]
    variance = 0.5 * tt * tt + rr * tt
    mass = np.abs(probs.sum(axis=1) - 1.0)
    moment = np.abs(probs @ (sites.astype(float) ** 2) - variance) / np.maximum(variance, 1.0)
    return {
        "grid": key_dev,
        "profile.mass": float(mass.max()),
        "profile.second_moment": float(moment.max()),
    }


def wigner_reference(tprime: float, r_d: float, points) -> list:
    """W(s, k) at a few phase-space points from the defining sum over the
    density matrix, with the matrix taken from the series-free
    Brillouin-zone quadrature.  1024 nodes per axis keep the aliased
    images of the window (period 1024 sites) far outside it."""
    from dqwalk import fourier, wigner
    from dqwalk.core import ModelParams

    p = ModelParams(tprime=tprime, r_d=r_d)
    half = math.ceil(tprime + 8.0 * math.sqrt(p.x) + 10.0 * tprime ** (1.0 / 3.0) + 20.0)
    block = fourier.density_block_quadrature(
        np.arange(-half, half + 1), p, fourier.QuadratureSpec(nodes_per_axis=1024)
    )
    window = SimpleNamespace(half_width=half, elements=block)
    return [wigner.wigner_from_density(s, k, window) for s, k in points]


def check_wigner(path: Path, tprime: float, r_d: float, s_lo: int, s_hi: int,
                 k_nodes: np.ndarray, reference: dict) -> dict:
    """Marginals of a wigner CSV, plus the points in ``reference``
    (``{(site index, k index): W}``)."""
    data = read_csv(path, 6)
    sites = np.arange(s_lo, s_hi + 1)
    grid = data.reshape(sites.size, k_nodes.size, 6)
    key_dev = max(
        _grid_residual(grid[:, 0, 2], sites.astype(float)),
        _grid_residual(grid[0, :, 3], k_nodes),
        float(np.abs(grid[:, :, 0] - tprime).max()),
        float(np.abs(grid[:, :, 1] - r_d).max()),
    )
    w = grid[:, :, 4]
    marginal = w.sum(axis=0)
    total = float(np.trapezoid(marginal, k_nodes))
    point_dev = max(abs(w[i, j] - ref) for (i, j), ref in reference.items())
    return {
        "grid": key_dev,
        "wigner.momentum_marginal": float(np.abs(marginal - 1.0 / TWO_PI).max()),
        "wigner.total_mass": abs(total - 1.0),
        "wigner.defining_sum": float(point_dev),
    }


def skellam_entropy(x: float) -> float:
    """-sum_n w_n ln w_n for the Skellam(x/2, x/2) weights w_n = e^{-x} I_n(x)."""
    n_max = math.ceil(x + 20.0 * math.sqrt(x) + 40.0)
    w = special.ive(np.abs(np.arange(-n_max, n_max + 1)), x)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def check_entropy(path: Path, t_values, rd_values) -> dict:
    """Every entropy row against the Skellam entropy at x = r_D t'."""
    data = read_csv(path, 3)
    rd, t = np.meshgrid(np.sort(rd_values), t_values, indexing="ij")
    key_dev = max(
        _grid_residual(data[:, 0], t.ravel()), _grid_residual(data[:, 1], rd.ravel())
    )
    ref = np.array([skellam_entropy(r * tt) for tt, r in data[:, :2]])
    return {"grid": key_dev, "entropy.skellam": float(np.abs(data[:, 2] - ref).max())}


def failures(residuals: dict) -> list[str]:
    """Names of residuals above their tolerance; the CSV key columns must
    match the requested grid to 1e-9."""
    limits = dict(TOLERANCES, grid=1e-9)
    return [name for name, value in residuals.items() if not value <= limits[name]]
