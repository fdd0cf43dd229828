"""Exact observables of a dissipative quantum walk on a 1D lattice.

The top level carries the README quick start; the rest lives in its module.
"""

__version__ = "0.1.0"

from .core import ModelParams, probability_profile, purity, truncation_for

__all__ = ["ModelParams", "probability_profile", "purity", "truncation_for"]
