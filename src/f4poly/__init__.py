"""Exact computational construction of the exceptional Lie algebra F4 folded
out of E6, realized by differential operators on polynomials in 26 variables.

Submodules are imported on first use (PEP 562), so a command that runs only
``dimensions`` never compiles the rest of the package."""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

__all__ = [
    "algebra",
    "checks",
    "cli",
    "dimensions",
    "errata",
    "lattice",
    "linalg",
    "poly",
    "representation",
    "__version__",
]


def __getattr__(name: str) -> object:
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
