"""Solver and verification toolkit for spike concentration in the
semiclassical magnetic NLS, with frozen-coefficient ground-state machinery,
landscape analysis of the ground energy, and solution diagnostics."""

__version__ = "0.1.0"

from .model import ModelSpec, Nonlinearity, parse_potential
from .fields import Field3, Grid3, make_grid
