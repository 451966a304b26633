"""Complex-field solver for the magnetic problem on box grids.

The discrete problem is a fields.Hamiltonian: the sixth-order phased-hop
kinetic operator, whose hop phases carry exact line integrals of the vector
potential, which keeps the discrete energy, the descent direction, and the
reported residual gauge covariant to rounding for polynomial gauge
functions; fields.link_table walls ModelSpec.link_phases and forms the
longer hops.  The expanded form of the operator (the one with an explicit
div A term) is never assembled: the phases encode that term exactly.  The
solve runs frozen_solver's descent, the one the real 3D flow runs, from this
module's seeds; energy_J and pde_residual read the same Hamiltonian.  The
descent's step is per node, 1.8 / (18.14 eps^2 / h^2 + (1 + p) V(x)): a
bound on row x of the operator, so the spike, where V is small, is not held
to the step that sup V at the box corners allows (see _descend).  The
Hamiltonian of a complex field always holds a complex hop table, real unit
phases included.  rescaled_model reads the coefficients in the blow-up
frame, at z + eps x; the frozen problem at z is that frame at eps = 0.

Every sum a solve or rescale takes runs on one thread in numpy's fixed order,
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
    make_grid,
    read_snapshot,
)
from .frozen_solver import (
    FrozenPoint,
    ResolutionWarning,  # _descend warns with it; solve_magnetic's callers catch it here
    SolverError,
    _descend,
    explicit_sigma_and_grad,
    ground_state,
    sample_profile_on_grid,
)
from .model import ModelSpec, PotentialExpr, expr_to_str, subs_affine, validate_assumptions


class BoundaryMassError(SolverError):
    """The box is too small: the outermost node shell carries real mass."""


@dataclass
class MagneticSolveConfig:
    """Knobs for a single magnetic solve.

    tol is relative: the iteration stops when the residual rms falls below
    tol * max(1, sup V) * rms(u).  The descent's step, 1.8 over the
    per-node row bound 18.14 eps^2 / h^2 + (1 + p) V(x), and its momentum
    0.95 are constants of frozen_solver._descend, not knobs.  seed is "frozen"
    (modulated frozen ground state), "random" (deterministic in rng_seed),
    or a path to a field snapshot.
    """

    eps: float
    grid: Grid3
    max_iters: int = 20000
    tol: float = 1e-5
    seed: str = "frozen"
    rng_seed: int = 0
    center: tuple | None = None

    def __post_init__(self):
        if self.eps <= 0:
            raise SolverError("eps must be positive")
        if self.tol <= 0:
            raise SolverError("residual tolerance must be positive")


@dataclass
class MagneticSolution:
    """Converged complex field with its reported scales.

    scaled_energy is eps^-3 J(u), which stays bounded along a concentrating
    family; the concentration study compares it with Sigma at its target.
    spike is the argmax of |u| after one parabolic refinement per axis.
    """

    u: Field3
    eps: float
    energy_J: float
    scaled_energy: float
    residual_rms: float
    nehari_slack: float
    spike: np.ndarray
    iterations: int
    trace: list = field(repr=False, default_factory=list)


class PhaseSplit(NamedTuple):
    U: Field3
    omega: float
    imag_fraction: float


def _spike_location(u: Field3) -> np.ndarray:
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


def _seed_field(model: ModelSpec, cfg: MagneticSolveConfig) -> np.ndarray:
    grid = cfg.grid
    if cfg.seed == "frozen":
        c = np.asarray(cfg.center, dtype=np.float64) if cfg.center is not None \
            else _default_center(model, grid)
        point = FrozenPoint.from_model(model, c)
        prof = ground_state(point, model.nonlin)
        amp = sample_profile_on_grid(prof, grid, center=c, scale=cfg.eps)
        X = grid.meshgrid()
        Az = model.A_at(c)
        phase = sum(Az[m] * (X[m] - c[m]) for m in range(3)) / cfg.eps
        return amp * np.exp(1j * phase)
    if cfg.seed == "random":
        rng = np.random.default_rng(cfg.rng_seed)
        raw = rng.standard_normal(tuple(grid.dims)) + 1j * rng.standard_normal(tuple(grid.dims))
        # a few diffusion sweeps leave a smooth, box-scale random field
        for _ in range(8):
            for ax in range(3):
                raw = raw + 0.5 * (np.roll(raw, 1, axis=ax) + np.roll(raw, -1, axis=ax) - 2 * raw)
        c = np.asarray(cfg.center, dtype=np.float64) if cfg.center is not None \
            else np.asarray(grid.origin, dtype=np.float64)
        X = grid.meshgrid()
        r2 = sum((X[m] - c[m]) ** 2 for m in range(3))
        # wide enough to be seen by the descent, narrow enough that the
        # envelope tail clears the boundary-mass gate
        half = min(grid.half_extent(k) for k in range(3))
        w = min(max(4.0 * cfg.eps, 6.0 * grid.spacing), 0.2 * half)
        return raw * np.exp(-r2 / (2.0 * w * w))
    snap = read_snapshot(cfg.seed)
    if snap.grid.dims != grid.dims or not np.allclose(snap.grid.spacing, grid.spacing):
        raise SolverError("seed snapshot grid does not match the solve grid")
    return np.asarray(snap.values, dtype=np.complex128)


def solve_magnetic(model: ModelSpec, cfg: MagneticSolveConfig) -> MagneticSolution:
    """Least-energy descent for the magnetic problem.

    Each iteration takes a heavy-ball gradient step of the discrete action and
    rescales the iterate back onto the set where the action's derivative
    against the iterate itself vanishes, so the constraint holds along the
    whole descent path.  Deterministic for a fixed seed policy.

    Raises ModelError when the model fails validate_assumptions,
    BoundaryMassError when the seed puts more than 1e-5 of its
    squared-modulus mass on the outermost node shell (the box is then too
    small for the problem), and ConvergenceError (carrying the trace) when
    max_iters runs out.
    """
    validate_assumptions(model)
    grid, eps = cfg.grid, cfg.eps
    H = Hamiltonian.from_model(model, grid, eps)
    seed = _seed_field(model, cfg)
    bm = boundary_fraction(np.abs(seed) ** 2)
    if bm > 1e-5:
        raise BoundaryMassError(
            f"seed field keeps {bm:.2e} of its mass on the box boundary; enlarge the box"
        )
    trace: list = []
    u = _descend(H, seed, cfg.tol, cfg.max_iters, trace, "magnetic descent")
    last = trace[-1]
    sol_u = Field3(grid, u)
    return MagneticSolution(
        u=sol_u,
        eps=eps,
        energy_J=last["energy"],
        scaled_energy=last["energy"] / eps**3,
        residual_rms=last["residual"],
        nehari_slack=last["nehari_slack"],
        spike=_spike_location(sol_u),
        iterations=last["iter"],
        trace=trace,
    )


def solve_frozen_magnetic(z, model: ModelSpec, grid: Grid3, **cfg_kwargs) -> MagneticSolution:
    """Solve the constant-coefficient magnetic problem frozen at z.

    The frozen model is rescaled_model(model, z, 0.0): every coefficient,
    the now-constant vector potential included, is read at z + 0 x = z, and
    the problem is posed at unit semiclassical parameter on the given box,
    seeded at the box center.
    """
    frozen = rescaled_model(model, z, 0.0)
    kwargs = {"eps": 1.0, "grid": grid, "center": tuple(grid.origin), "seed": "frozen"}
    kwargs.update(cfg_kwargs)
    cfg = MagneticSolveConfig(**kwargs)
    return solve_magnetic(frozen, cfg)


_PAD = 12  # edge copies on each side ahead of the spline prefilter


def _spline_operator(n: int, x: np.ndarray) -> np.ndarray:
    """The (x.size, n) matrix S = B M P that takes n samples on the nodes
    0..n-1 to their cubic B-spline interpolant at the fractional node
    positions x, all within [0, n - 1].

    P pads the samples by _PAD edge copies on each side; M is the cubic
    B-spline prefilter of the padded samples with mirror boundaries, gain 6
    and one causal and one anticausal pass with the pole z = sqrt(3) - 2
    (Unser, IEEE Signal Process. Mag. 1999), run on the unit samples, so
    column j holds the coefficients of sample j; B holds the four B-spline
    weights at each x.  Together that is map_coordinates(order=3,
    mode="nearest") along one axis.  Rows are combined by numpy
    elementwise operations only, in a fixed order.
    """
    m = n + 2 * _PAD
    z = math.sqrt(3.0) - 2.0
    c = 6.0 * np.eye(m)
    zk = z ** np.arange(m)
    c[0] = zk
    c[0, 1:-1] += zk[-1] * zk[-2:0:-1]  # the mirrored samples' share
    c[0] *= 6.0 / (1.0 - zk[-1] * zk[-1])
    for i in range(1, m):
        c[i] += z * c[i - 1]
    c[-1] = (z / (z * z - 1.0)) * (c[-1] + z * c[-2])
    for i in range(m - 2, -1, -1):
        c[i] = z * (c[i + 1] - c[i])
    MP = np.concatenate(
        [c[:, : _PAD + 1].sum(axis=1, keepdims=True), c[:, _PAD + 1 : _PAD + n - 1],
         c[:, _PAD + n - 1 :].sum(axis=1, keepdims=True)], axis=1)
    xp = x + _PAD
    i = np.floor(xp).astype(np.int64)
    t = (xp - i)[:, None]
    s = 1.0 - t
    return (s**3 * MP[i - 1] + (4.0 - 6.0 * t * t + 3.0 * t**3) * MP[i]
            + (4.0 - 6.0 * s * s + 3.0 * s**3) * MP[i + 1] + t**3 * MP[i + 2]) / 6.0


def rescale(u: Field3, eps: float, z0) -> Field3:
    """Blow-up view v(x) = u(z0 + eps x) on a unit-scale box.

    The target box is the largest cube around z0 whose image stays inside the
    source box, with as many nodes as the source.  Values are the cubic
    B-spline interpolant of u, edge-continued, which is what
    map_coordinates(order=3, mode="nearest") gives: the target grid is a
    tensor product, so the interpolant is one _spline_operator per axis,
    applied along that axis by einsum to the real and imaginary parts.  At
    eps = 1 with z0 the source box center it is the identity to rounding.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    src = u.grid
    origin = np.asarray(src.origin, dtype=np.float64)
    half = np.array([src.half_extent(k) for k in range(3)])
    room = half - np.abs(z0 - origin)
    if np.any(room <= 0):
        raise SolverError("rescale center sits outside the source box")
    radius = float(room.min()) / eps
    n = int(src.dims[0])
    target = make_grid(radius=radius, n=n)
    ax, lo = np.linspace(-radius, radius, n), origin - half
    S = [_spline_operator(src.dims[k], (z0[k] + eps * ax - lo[k]) / src.spacing) for k in range(3)]
    w = np.stack((u.values.real, u.values.imag))
    w = np.einsum("ia,dabc->dibc", S[0], w)
    w = np.einsum("jb,dibc->dijc", S[1], w)
    w = np.einsum("kc,dijc->dijk", S[2], w)
    return Field3(target, w[0] + 1j * w[1])


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
