"""Complex-field solver for the magnetic problem on box grids.

The discrete problem is a fields.Hamiltonian: the sixth-order phased-hop
kinetic operator, whose hop phases carry exact line integrals of the vector
potential, which keeps the discrete energy, the descent direction, and the
reported residual gauge covariant to rounding for polynomial gauge
functions; fields.link_table walls ModelSpec.link_phases, and the stencil
forms the longer hops from those single hops.  The expanded form of the
operator (the one with an explicit div A term) is never assembled: the
phases encode that term exactly.  The solve runs the Hamiltonian's own
descent, Hamiltonian.descend, from this module's seeds; energy_J and
pde_residual read the same Hamiltonian.
solve_magnetic takes values: the model, the grid, eps and keywords with
defaults, and its seed is "frozen", "random" or a Field3 on the solve grid.
This module opens no file; the CLI reads a snapshot seed.  The solve reads
the diamagnetic slack of its last iterate off the Hamiltonian it built, so
it builds the link phases once.  rescale views a field in the blow-up frame
y = (x - z) / eps, and rescaled_model reads the coefficients there, at
z + eps y; the frozen problem at z is that frame at eps = 0.

Every sum a solve takes runs on one thread in numpy's fixed order,
none in a threaded BLAS, so runs with the same seed produce identical bytes
whatever the BLAS thread count.  Separate solves share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import (
    Field3,
    Grid3,
    Hamiltonian,
    boundary_fraction,
)
from .frozen_solver import (
    FrozenPoint,
    SolverError,
    explicit_sigma_and_grad,
    ground_state,
    sample_profile_on_grid,
)
from .model import ModelSpec, PotentialExpr, expr_to_str, subs_affine, validate_assumptions


class BoundaryMassError(SolverError):
    """The box is too small: the outermost node shell carries real mass."""


@dataclass
class MagneticSolution:
    """Converged complex field with its reported scales.

    scaled_energy is eps^-3 J(u), which stays bounded along a concentrating
    family; the concentration study compares it with Sigma at its target.
    spike is the argmax of |u| after one parabolic refinement per axis.
    diamagnetic_slack is Hamiltonian.diamagnetic_slack of u.
    """

    u: Field3
    eps: float
    energy_J: float
    scaled_energy: float
    residual_rms: float
    nehari_slack: float
    diamagnetic_slack: float
    spike: np.ndarray
    iterations: int
    trace: list = field(repr=False, default_factory=list)


class PhaseSplit(NamedTuple):
    U: Field3
    omega: float
    imag_fraction: float


def spike_location(u: Field3) -> np.ndarray:
    """Argmax of |u| with one parabolic refinement along each axis."""
    m = np.abs(u.values) ** 2
    idx = np.unravel_index(int(np.argmax(m)), m.shape)
    out = np.empty(3)
    h = u.grid.spacing
    for ax in range(3):
        i = idx[ax]
        out[ax] = u.grid.axis(ax)[i]
        if 0 < i < u.grid.dims[ax] - 1:
            lo = list(idx)
            lo[ax] = i - 1
            y0 = m[tuple(lo)]
            lo[ax] = i + 1
            y2 = m[tuple(lo)]
            y1 = m[idx]
            denom = y0 - 2.0 * y1 + y2
            if denom < 0.0:
                out[ax] += h * float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    return out


def energy_J(u: Field3, model: ModelSpec, eps: float, H: Hamiltonian | None = None) -> float:
    """J(u) = (kinetic form + V-mass)/2 minus the K-weighted potential term.

    The kinetic part is the phased quadratic form, so the value is invariant
    under a gauge change of the pair (u, model).  H, when given, is the
    Hamiltonian of (model, u.grid, eps) already built.
    """
    return (H or Hamiltonian.from_model(model, u.grid, eps)).energy(u.values)


def pde_residual(u: Field3, model: ModelSpec, eps: float, H: Hamiltonian | None = None):
    """Strong-form residual field of the magnetic equation and its rms.

    Applies the same phased discrete Hamiltonian the solver descends on, so a
    converged solve reports the residual it was actually driven by.  The
    field's A-dependence (the gradient coupling and the divergence term alike)
    rides inside the hop phases, integrated analytically edge by edge.  The
    two-node rim carries the homogeneous Dirichlet data rather than the
    equation, so its rows are reported as zero.  H is as in energy_J.
    """
    H = H or Hamiltonian.from_model(model, u.grid, eps)
    res, rms = H.residual(u.values, H.apply(u.values))
    return Field3(u.grid, res), rms


def _default_center(model: ModelSpec, grid: Grid3) -> np.ndarray:
    """Seed center: lattice minimizer of the explicit ground energy.

    Falls back to the box center when the nonlinearity has no explicit
    energy formula.
    """
    origin = np.asarray(grid.origin, dtype=np.float64)
    if not model.nonlin.is_power:
        return origin
    r = 0.5 * grid.half_extent()
    ax = [np.linspace(o - r, o + r, 13) for o in origin]
    Z = np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1).reshape(-1, 3)
    sig, _ = explicit_sigma_and_grad(Z, model)
    # near-ties (constant coefficients being the extreme case) resolve toward
    # the box center, where the seed has the most room
    close = sig <= sig.min() + 1e-12 * abs(sig.min())
    cand = Z[close]
    d2 = ((cand - origin) ** 2).sum(axis=1)
    return cand[int(np.argmin(d2))]


def _seed_field(model: ModelSpec, grid: Grid3, eps: float, seed, rng_seed: int, center) -> np.ndarray:
    if isinstance(seed, Field3):
        if not grid.matches(seed.grid):
            raise SolverError("seed field's grid does not match the solve grid")
        return np.asarray(seed.values, dtype=np.complex128)
    if not isinstance(seed, str):
        raise SolverError(f"unknown seed of type {type(seed).__name__}: give 'frozen', 'random' or a Field3")
    if seed == "frozen":
        c = np.asarray(center, dtype=np.float64) if center is not None \
            else _default_center(model, grid)
        point = FrozenPoint.from_model(model, c)
        prof = ground_state(point, model.nonlin)
        amp = sample_profile_on_grid(prof, grid, center=c, scale=eps)
        if not amp.any():
            raise SolverError(f"frozen seed is zero on every node: the spike, eps / h = {eps / grid.spacing:.3g} "
                              "nodes wide, falls between them; refine the grid or raise eps")
        X = grid.meshgrid()
        Az = model.A_at(c)
        phase = sum(Az[m] * (X[m] - c[m]) for m in range(3)) / eps
        return amp * np.exp(1j * phase)
    if seed == "random":
        rng = np.random.default_rng(rng_seed)
        raw = rng.standard_normal(tuple(grid.dims)) + 1j * rng.standard_normal(tuple(grid.dims))
        # a few diffusion sweeps leave a smooth, box-scale random field
        for _ in range(8):
            for ax in range(3):
                raw = raw + 0.5 * (np.roll(raw, 1, axis=ax) + np.roll(raw, -1, axis=ax) - 2 * raw)
        c = np.asarray(center, dtype=np.float64) if center is not None \
            else np.asarray(grid.origin, dtype=np.float64)
        X = grid.meshgrid()
        r2 = sum((X[m] - c[m]) ** 2 for m in range(3))
        # wide enough to be seen by the descent, narrow enough that the
        # envelope tail clears the boundary-mass gate
        half = min(grid.half_extent(k) for k in range(3))
        w = min(max(4.0 * eps, 6.0 * grid.spacing), 0.2 * half)
        return raw * np.exp(-r2 / (2.0 * w * w))
    raise SolverError(f"unknown seed {seed!r}: give 'frozen', 'random' or a Field3")


def _bounded_seed(u0: np.ndarray) -> np.ndarray:
    """u0, or BoundaryMassError when it puts more than 1e-5 of its
    squared-modulus mass on the outermost node shell."""
    bm = boundary_fraction(np.abs(u0) ** 2)
    if bm > 1e-5:
        raise BoundaryMassError(
            f"seed field keeps {bm:.2e} of its mass on the box boundary; enlarge the box"
        )
    return u0


def solve_magnetic(model: ModelSpec, grid: Grid3, eps: float, *, tol: float = 1e-5,
                   max_iters: int = 20000, seed="frozen", rng_seed: int = 0,
                   center=None) -> MagneticSolution:
    """Least-energy descent for the magnetic problem on grid at semiclassical
    parameter eps.

    The descent is Hamiltonian.descend, which keeps every iterate on the
    Nehari manifold.  tol is relative: the descent stops when the residual
    rms falls below tol * max(1, sup V) * rms(u), or fails after max_iters
    iterations.  seed is "frozen" (the frozen ground state at center, or at
    the lattice minimizer of the explicit ground energy, modulated by the
    magnetic phase there), "random" (a smoothed Gaussian-windowed random
    field around center or the box center, deterministic in rng_seed), or a
    Field3 on grid to restart from.  Deterministic for fixed arguments.

    Raises SolverError for eps or tol outside (0, inf), a seed of any other
    value or type, a seed field on another grid (Grid3.matches), a frozen
    seed that is zero on every node (eps / h too small), ModelError when the
    model fails validate_assumptions, BoundaryMassError when the seed puts
    more than 1e-5 of its squared-modulus mass on the outermost node shell
    (the box is then too small for the problem), and ConvergenceError
    (carrying the trace) when max_iters runs out.
    """
    if not 0 < eps < math.inf:
        raise SolverError(f"eps must be positive and finite, got {eps}")
    if not 0 < tol < math.inf:
        raise SolverError(f"residual tolerance must be positive and finite, got {tol}")
    validate_assumptions(model)
    H = Hamiltonian.from_model(model, grid, eps)
    trace: list = []
    # the seed's one reference is descend's argument, which descend drops for
    # its first iterate: no seed field lives alongside the iterates
    u = H.descend(_bounded_seed(_seed_field(model, grid, eps, seed, rng_seed, center)), tol, max_iters, trace)
    last = trace[-1]
    sol_u = Field3(grid, u)
    return MagneticSolution(
        u=sol_u,
        eps=eps,
        energy_J=last["energy"],
        scaled_energy=last["energy"] / eps**3,
        residual_rms=last["residual"],
        nehari_slack=last["nehari_slack"],
        diamagnetic_slack=H.diamagnetic_slack(u),
        spike=spike_location(sol_u),
        iterations=last["iter"],
        trace=trace,
    )


def solve_frozen_magnetic(z, model: ModelSpec, grid: Grid3, **kwargs) -> MagneticSolution:
    """Solve the constant-coefficient magnetic problem frozen at z.

    The frozen model is rescaled_model(model, z, 0.0): every coefficient,
    the now-constant vector potential included, is read at z + 0 x = z, and
    the problem is posed at unit semiclassical parameter on the given box,
    seeded at the box center; kwargs are solve_magnetic's keywords.
    """
    return solve_magnetic(rescaled_model(model, z, 0.0), grid, 1.0, center=tuple(grid.origin), **kwargs)


def rescale(u: Field3, eps: float, z0) -> Field3:
    """Blow-up view v(y) = u(z0 + eps y), exact on the nodes u was solved on.

    y = (x - z0) / eps is affine, so the view is u.values itself, shared, on
    the grid with spacing h / eps and origin (origin - z0) / eps: the solve
    box over eps, whose walls a boundary-mass gate on the view reads.  The
    point y = 0 is z0.  Raises SolverError when z0 lies outside the box.
    """
    g = u.grid
    off = np.asarray(z0, dtype=np.float64) - g.origin
    if np.any(np.abs(off) >= [g.half_extent(k) for k in range(3)]):
        raise SolverError("rescale center sits outside the source box")
    return Field3(Grid3(g.dims, g.spacing / eps, tuple(float(c) for c in -off / eps)), u.values)


def rescaled_model(model: ModelSpec, z0, eps: float) -> ModelSpec:
    """Model with coefficients read at z0 + eps x, as the blow-up view sees
    them; at eps = 0 it is the model frozen at z0, each coefficient's value
    there to the bit."""

    def sub(expr: PotentialExpr) -> PotentialExpr:
        root = subs_affine(expr.root, z0, eps)
        return PotentialExpr(expr_to_str(root), root)

    return ModelSpec(
        V=sub(model.V),
        K=sub(model.K),
        A=tuple(sub(a) for a in model.A),
        nonlin=model.nonlin,
    )


def phase_factor_split(v: Field3, z, model: ModelSpec) -> PhaseSplit:
    """Split v into the linear magnetic phase at z and the remaining profile.

    Returns U = exp(-i sum_j A_j(z) x_j) v together with the constant phase
    omega read at the modulus argmax and the residual imaginary fraction of
    exp(-i omega) U (largest |imaginary part| over the grid divided by the
    largest modulus).
    """
    Az = model.A_at(np.asarray(z, dtype=np.float64))
    X = v.grid.meshgrid()
    ups = sum(Az[m] * X[m] for m in range(3))
    Uv = v.values * np.exp(-1j * ups)
    mod = np.abs(Uv)
    idx = np.unravel_index(int(np.argmax(mod)), mod.shape)
    peak = mod[idx]
    if peak == 0.0:
        raise SolverError("phase split needs a nonzero field")
    omega = float(np.angle(Uv[idx]))
    resid = np.abs(np.imag(Uv * np.exp(-1j * omega)))
    return PhaseSplit(Field3(v.grid, Uv), omega, float(resid.max() / peak))
