"""Solver and verification toolkit for spike concentration in the
semiclassical magnetic NLS, with frozen-coefficient ground-state machinery,
landscape analysis of the ground energy, and solution diagnostics.  The
re-exports are lazy (PEP 562): import spikemap loads no numpy, so spikemap.cli
can pick the BLAS thread count before numpy loads."""

from importlib import import_module

__version__ = "0.1.0"
_LAZY = {"ModelSpec": "model", "Nonlinearity": "model", "parse_potential": "model",
         "Field3": "fields", "Grid3": "fields", "make_grid": "fields"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
