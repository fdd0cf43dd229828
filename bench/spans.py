"""Span tracing for the benchmark's traced run.

The package binds its Bessel helpers with ``from .bessel import ...``, so
``core``, ``wigner`` and ``spectral`` each hold their own reference.  A
wrapper is therefore installed at every name a consumer looks up at call
time, not only on the defining module.  Each call records a span
``[name, start, end, parent index]`` in memory; counts derived from array
shapes are accumulated next to it.  Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path


def _count_gather(counts, args, kwargs, result):
    counts["bessel.j_orders.elements"] += result.size
    counts["bessel.j_orders.bytes_computed"] += result.nbytes


def _count_truncation(counts, args, kwargs, result):
    key = "bessel.truncation_order.n_max_max"
    counts[key] = max(counts[key], result.n_max)


def _count_profile(counts, args, kwargs, result):
    s_values, _, trunc = args[:3]
    counts["core.probability_profile.cells"] += len(s_values) * (2 * trunc.n_max + 1)


def _count_window(counts, args, kwargs, result):
    counts["spectral.build_window.dim_sum"] += result.elements.shape[0]


def _count_eigen(counts, args, kwargs, result):
    n = result.eigenvalues.size
    counts["spectral.eigen_spectrum.flops_computed"] += 4.0 * n**3 / 3.0


def _count_csv(counts, args, kwargs, result):
    path, _, rows = args[:3]
    counts["cli.rows"] += len(rows)
    counts["cli.write_csv.bytes"] += Path(path).stat().st_size


#: (consumer module, attribute, span name, counter).  The consumer is the
#: module whose globals the caller resolves the name in.
TARGETS = [
    *[(m, "bessel_j_orders", "bessel.j_orders", _count_gather)
      for m in ("bessel", "core", "wigner", "spectral")],
    *[(m, "bessel_i_scaled_orders", "bessel.i_scaled_orders", None)
      for m in ("bessel", "core", "wigner", "spectral")],
    *[(m, "truncation_order", "bessel.truncation_order", _count_truncation)
      for m in ("bessel", "core")],
    ("core", "probability_profile", "core.probability_profile", _count_profile),
    ("wigner", "wigner_row", "wigner.wigner_row", None),
    ("wigner", "wigner_grid", "wigner.wigner_grid", None),
    ("spectral", "window_half_width", "spectral.window_half_width", None),
    ("spectral", "build_window", "spectral.build_window", _count_window),
    ("spectral", "eigen_spectrum", "spectral.eigen_spectrum", _count_eigen),
    ("spectral", "entropy", "spectral.entropy", None),
    ("cli", "_write_csv", "cli.write_csv", _count_csv),
]


class Tracer:
    """Records spans and counts while installed; restores every patched
    name on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict) -> "Tracer":
        for mod_name, attr, name, count in TARGETS:
            module = modules[mod_name]
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
        return self

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def self_times(spans: list[list], lo: int = 0) -> dict[str, float]:
    """Self time per span name over ``spans[lo:]``: each span's duration
    minus the durations of its direct children.  Parent indices are
    positions in the whole ``spans`` list."""
    child: defaultdict = defaultdict(float)
    for name, start, end, parent in spans[lo:]:
        if parent is not None:
            child[parent] += end - start
    totals: defaultdict = defaultdict(float)
    for i in range(lo, len(spans)):
        name, start, end, _ = spans[i]
        totals[name] += end - start - child[i]
    return dict(totals)
