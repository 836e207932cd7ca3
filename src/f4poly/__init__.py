"""Exact computational construction of the exceptional Lie algebra F4 folded
out of E6, realized by differential operators on polynomials in 26 variables."""

from __future__ import annotations

from . import algebra, checks, dimensions, lattice, linalg, poly, representation

__version__ = "0.1.0"

__all__ = [
    "algebra",
    "checks",
    "cli",
    "dimensions",
    "lattice",
    "linalg",
    "poly",
    "representation",
    "__version__",
]
