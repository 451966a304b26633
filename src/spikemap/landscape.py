"""Sweeps of the ground-energy map and the candidate spike sets.

The map z -> Sigma(z) comes from frozen_solver.ground_energy, which alone
picks the route: the explicit formula for power nonlinearities, and a
shooting solve per point otherwise, run serially in lattice order.  A sweep keeps
Sigma and its gradient as arrays over the lattice.  Everything else in this
module is root finding on top of it: the Clarke-critical set S, the
algebraic set S_p, the weak-concentration set S*, the critical points of K,
and the drift study that tracks dist(S_p, Crit K) as p approaches 5.  S,
S_p and Crit K share one Newton root search, which runs Newton from all
starts at once: one batched kernel call per search, each evaluation of the
field covering every start still running.  The landscape command searches
each set once; the drift study only measures the results it is given.
Every function here returns data; the CLI alone writes files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import clarke_critical_test, gamma_pm
from .frozen_solver import (
    FrozenPoint,
    SolverError,
    explicit_sigma_and_grad,
    ground_energy,
    ground_state,
)
from .model import LATTICE_DIRECTIONS, EvalError, ModelSpec


class LandscapeError(Exception):
    """A sweep or root search was asked for something it cannot do."""


def _as_region(region) -> np.ndarray:
    r = np.asarray(region, dtype=np.float64)
    if r.shape != (3, 2):
        raise LandscapeError("region must be three (lo, hi) pairs")
    if not np.all(r[:, 1] > r[:, 0]):
        raise LandscapeError("region bounds need lo < hi on every axis")
    return r


def _as_resolution(resolution) -> tuple:
    if np.isscalar(resolution):
        resolution = (resolution, resolution, resolution)
    res = tuple(int(n) for n in resolution)
    if len(res) != 3 or min(res) < 1:
        raise LandscapeError("resolution must be three positive counts")
    return res


def _lattice(region: np.ndarray, res: tuple) -> np.ndarray:
    axes = [np.linspace(region[k, 0], region[k, 1], res[k]) for k in range(3)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class GroundEnergyMap:
    """Sigma sampled on a rectangular lattice, row-major over the axes.

    points (N, 3) holds the nodes, samples (N,) Sigma and grad (N, 3) its
    gradient there; method names the route.  failures lists (lattice index,
    message) pairs for nodes whose solve failed; those nodes carry nan and
    stay in place so the lattice shape survives.
    """

    region: tuple
    resolution: tuple
    points: np.ndarray
    samples: np.ndarray
    grad: np.ndarray
    method: str
    failures: list = field(default_factory=list)

    def __post_init__(self):
        want = int(np.prod(self.resolution))
        if len(self.samples) != want:
            raise LandscapeError(
                f"lattice of {self.resolution} needs {want} samples, got {len(self.samples)}"
            )
        if np.any(self.samples <= 0.0):
            i = np.nanargmin(self.samples)
            raise LandscapeError(f"ground energy must be positive, got {self.samples[i]} at {self.points[i]}")

    def sigma_lattice(self) -> np.ndarray:
        return self.samples.reshape(self.resolution)

    def grad_lattice(self) -> np.ndarray:
        return self.grad.reshape(self.resolution + (3,))


def sweep_sigma(region, resolution, model: ModelSpec, n_shoot: int = 4000) -> GroundEnergyMap:
    """Sample the ground-energy map over a lattice with ground_energy.

    One call over all nodes: the explicit formula for powers, otherwise a
    shot per node, in lattice order, with n_shoot radial steps; a node whose
    solve fails is recorded in failures with nan values.  If every node
    fails, SolverError names the first node and its message.
    """
    reg = _as_region(region)
    res = _as_resolution(resolution)
    pts = _lattice(reg, res)
    region_t = tuple((float(lo), float(hi)) for lo, hi in reg)

    failures = []
    sig, grad, method = ground_energy(pts, model, int(n_shoot), failures)
    if len(failures) == len(pts):
        raise SolverError(f"the sweep solved no node; node 0 at {pts[0].tolist()}: {failures[0][1]}")
    return GroundEnergyMap(region_t, res, pts, sig, grad, method, failures)


@dataclass
class CriticalSetResult:
    """Accepted roots of one of the candidate-set conditions.

    kind is one of S, Sp, Sstar, CritK.  residuals holds the acceptance
    measure per point (gradient norm, scaled |G|, or worst bracket margin).
    degenerate flags regions where the condition holds everywhere, in which
    case points stays empty rather than listing the lattice.  notes records
    dropped seeds and rejected candidates.
    """

    kind: str
    points: list
    residuals: list
    p: float | None = None
    degenerate: bool = False
    method: str = ""
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("S", "Sp", "Sstar", "CritK"):
            raise LandscapeError(f"unknown critical-set kind {self.kind!r}")
        if len(self.points) != len(self.residuals):
            raise LandscapeError("one residual per point is required")


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis.  vecdot takes the BLAS dot, as
    np.linalg.norm does for one vector, so each norm has the bits of the
    vector's own norm whatever the batch around it."""
    return np.sqrt(np.vecdot(a, a))


def _in_region(z: np.ndarray, reg: np.ndarray, span: float) -> np.ndarray:
    """Which rows of z (N, 3) lie in the region box, up to a hairline
    boundary margin; a non-finite row never does."""
    inside = np.all(np.isfinite(z), axis=-1)
    zf = z[inside]
    inside[inside] = _norm(zf - np.clip(zf, reg[:, 0], reg[:, 1])) <= 1e-9 + 1e-6 * span
    return inside


def _each_row(fn, error, *stacks) -> np.ndarray:
    """fn on stacks of rows, returning an array shaped like the last stack.
    When the whole stack raises error, each row is taken alone and a row
    that raises reads nan, so that a failure ends only its own Newton run:
    an iterate outside the range where the coefficients evaluate, or a
    singular Jacobian."""
    try:
        return np.asarray(fn(*stacks), dtype=np.float64)
    except error:
        out = np.full(stacks[-1].shape, np.nan)
        for i in range(len(out)):
            try:
                out[i] = fn(*(s[i : i + 1] for s in stacks))[0]
            except error:
                pass
        return out


def _solve(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.linalg.solve(jac, g[..., None])[..., 0]


_SHIFTS = np.concatenate([np.eye(3), -np.eye(3)])


def _fd_jacobian(grad_fn, z: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians (N, 3, 3) of grad_fn at the rows of z
    (N, 3), jac[n, i, k] = d g_i / d z_k, from one evaluation on the
    (N, 6, 3) stack of z +- d e_k, with each row's own d = 1e-6 (1 + max|z|)."""
    d = 1e-6 * (1.0 + np.abs(z).max(axis=-1))
    g = _each_row(grad_fn, EvalError, z[:, None, :] + d[:, None, None] * _SHIFTS)
    return np.swapaxes(g[:, :3] - g[:, 3:], 1, 2) / (2.0 * d)[:, None, None]


def _newton(grad_fn, z0, span: float):
    """Damped Newton on a 3-vector field from all starts z0 (N, 3) at once,
    Jacobian by differencing grad_fn, which maps points (..., 3) to values
    (..., 3), for at most 40 iterations.  Each evaluation covers the rows
    still running.

    Returns arrays over the rows: z, |grad_fn(z)| and clean.  A row stops
    at |g| = 0; clean goes False when it ended for a structural reason: a
    non-finite value, a singular Jacobian, a non-finite step or one longer
    than 10 spans, or an iterate more than 10 spans from its start.  Flat
    tails of decaying coefficients produce tiny gradients over huge sets,
    and there Newton stalls rather than converges; the flag is what lets
    callers tell a root from a stall, since the gradient norm alone cannot.
    The line search tries t = 1, 1/2, ... until |g| stops growing or
    t < 1e-3, the same schedule for every row, so each row ends where it
    would alone.
    """
    z0 = np.asarray(z0, dtype=np.float64).reshape(-1, 3)
    z = z0.copy()
    clean = np.ones(len(z), dtype=bool)
    run = np.arange(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        g = _each_row(grad_fn, EvalError, z)
        for _ in range(40):
            gn = _norm(g[run])
            clean[run[~np.isfinite(gn)]] = False
            keep = np.isfinite(gn) & (gn != 0.0)
            run, gn = run[keep], gn[keep]
            if not run.size:
                break
            zr = z[run]
            step = _each_row(_solve, np.linalg.LinAlgError, _fd_jacobian(grad_fn, zr), g[run])
            bad = ~np.all(np.isfinite(step), axis=-1) | (_norm(step) > 10.0 * span)
            clean[run[bad]] = False
            run, zr, gn, step = run[~bad], zr[~bad], gn[~bad], step[~bad]
            if not run.size:
                break
            zn, gnew = zr.copy(), g[run]
            t, look = 1.0, np.arange(len(run))
            while True:
                zn[look] = zr[look] - t * step[look]
                gnew[look] = _each_row(grad_fn, EvalError, zn[look])
                look = look[~(_norm(gnew[look]) <= gn[look])]
                if not look.size or t < 1e-3:
                    break
                t *= 0.5
            z[run], g[run] = zn, gnew
            far = _norm(zn - z0[run]) > 10.0 * span
            clean[run[far]] = False
            run = run[~far]
    return z, _norm(g), clean


def _lattice_minima(values: np.ndarray) -> np.ndarray:
    """Flat indices of nodes not exceeded by any of their six neighbors."""
    pad = np.pad(values, 1, mode="constant", constant_values=np.inf)
    ok = np.isfinite(values)
    for ax in range(3):
        for shift in (0, 2):
            sl = [slice(1, -1)] * 3
            sl[ax] = slice(shift, pad.shape[ax] - 2 + shift)
            ok &= values <= pad[tuple(sl)]
    return np.flatnonzero(ok.ravel())


def _dedupe(points, residuals):
    kept_p, kept_r = [], []
    for z, r in zip(points, residuals):
        if all(float(np.linalg.norm(z - q)) > 1e-6 for q in kept_p):
            kept_p.append(z)
            kept_r.append(r)
    return kept_p, kept_r


def _newton_roots(fn, starts, reg: np.ndarray, span: float, accept, rejected=None):
    """One batched _newton from all starts; keeps the clean in-region roots,
    in start order, whose roots z (M, 3) and residuals r (M,) pass the mask
    accept(z, r), deduplicated.  Starts that yield no such root go to
    rejected as (start, r), in start order, when a list is given."""
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 3)
    z, r, ok = _newton(fn, starts, span)
    ok &= _in_region(z, reg, span)
    ok[ok] = accept(z[ok], r[ok])
    if rejected is not None:
        rejected.extend(zip(starts[~ok], r[~ok].tolist()))
    return _dedupe(list(z[ok]), r[ok].tolist())


def _degenerate(kind: str, g: np.ndarray, scale: float, note: str, p=None):
    """The degenerate result of kind, or None: degenerate when every norm of
    g (N, 3), the field whose zeros the set is, sampled over the search's
    lattice, is at most 1e-14 max(1, scale), nan rows skipped.  Then every
    point is a root, and a list would be meaningless."""
    if not float(np.nanmax(_norm(g))) <= 1e-14 * max(1.0, scale):
        return None
    return CriticalSetResult(kind, [], [], p=p, degenerate=True, method="degenerate", notes=[note])


def _seed_points(reg: np.ndarray, seeds) -> np.ndarray:
    """Newton starts: an int n means the n^3 lattice over the region (None
    means 9), anything else is an iterable of points."""
    if seeds is None:
        seeds = 9
    if np.isscalar(seeds):
        return _lattice(reg, _as_resolution(int(seeds)))
    return np.asarray(list(seeds), dtype=np.float64).reshape(-1, 3)


def find_S(emap: GroundEnergyMap, model: ModelSpec, sigma=None) -> CriticalSetResult:
    """Critical points of the ground-energy map in the Clarke sense.

    Power case: Newton on the analytic gradient, seeded from lattice minima
    of |grad Sigma|, accepted at |grad Sigma| < 1e-8.  Other nonlinearities:
    diagnostics.clarke_critical_test at lattice minima of Sigma itself, with
    its fixed sampling plan; sigma, when given, replaces its evaluator of
    Sigma (tests pass a closed form there).  A map whose swept gradient
    never leaves rounding noise is degenerate (_degenerate).
    """
    flat = _degenerate("S", emap.grad, float(np.nanmax(np.abs(emap.samples))),
                       "sigma is constant over the sweep region")
    if flat:
        return flat
    gnorm = np.sqrt(np.sum(emap.grad_lattice() ** 2, axis=-1))
    pts = emap.points
    span = float(np.linalg.norm([hi - lo for lo, hi in emap.region]))

    if model.nonlin.is_power:
        seeds = _lattice_minima(gnorm)
        if seeds.size > 200:
            order = np.argsort(gnorm.ravel()[seeds], kind="stable")
            seeds = seeds[order[:200]]
        grad_fn = lambda z: explicit_sigma_and_grad(z, model)[1]
        reg = np.asarray(emap.region, dtype=np.float64)
        rejected = []
        roots, resids = _newton_roots(grad_fn, pts[seeds], reg, span, lambda z, r: r < 1e-8, rejected)
        notes = [f"seed {z0.tolist()} did not converge (|grad| {r:.3e})" for z0, r in rejected]
        return CriticalSetResult("S", roots, resids, method="newton-explicit", notes=notes)

    roots, resids, notes = [], [], []
    for i in _lattice_minima(emap.sigma_lattice()):
        verdict = clarke_critical_test(pts[i], model, sigma)
        if verdict.member:
            roots.append(pts[i])
            resids.append(max(0.0, -verdict.margin))
        else:
            notes.append(
                f"candidate {pts[i].tolist()} rejected: margin {verdict.margin:.3e}"
            )
    roots, resids = _dedupe(roots, resids)
    return CriticalSetResult("S", roots, resids, method="clarke-sampled", notes=notes)


def find_Sp(model: ModelSpec, p: float, region, seeds=None) -> CriticalSetResult:
    """Roots of G(z) = (5 - p) K grad V - 4 V grad K inside the region.

    Newton from a seed lattice (an int n means n^3 over the region, default
    9^3; any iterable of points works too).  A root is accepted when |G| is
    below 1e-8 times the local gradient scale 1 + |grad V| + |grad K|; the
    condition is algebraic in the analytic gradients, so no discretization
    error enters.  An empty result is a legitimate outcome.  A G that
    vanishes over the seed lattice, on the scale of V K, is degenerate
    (_degenerate): for powers grad Sigma = Sigma G / (2 (p - 1) V K), so S_p
    is then as degenerate as S.
    """
    if not model.nonlin.is_power:
        raise LandscapeError("the algebraic condition is defined for power nonlinearities")
    if not 1.0 < float(p) < 5.0:
        raise LandscapeError(f"p must sit in (1, 5), got {p}")
    reg = _as_region(region)
    span = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    p = float(p)

    def G(z):
        v, gv = model.V.value_and_gradient(z)
        k, gk = model.K.value_and_gradient(z)
        return (5.0 - p) * k[..., None] * gv - 4.0 * v[..., None] * gk

    seed_pts = _seed_points(reg, seeds)
    vk = np.abs(model.V.value(seed_pts) * model.K.value(seed_pts))
    flat = _degenerate("Sp", G(seed_pts), float(vk.max()), "G vanishes over the seed lattice", p)
    if flat:
        return flat

    def accept(z, r):
        _, gv = model.V.value_and_gradient(z)
        _, gk = model.K.value_and_gradient(z)
        return r < 1e-8 * (1.0 + _norm(gv) + _norm(gk))

    roots, resids = _newton_roots(G, seed_pts, reg, span, accept)
    return CriticalSetResult("Sp", roots, resids, p=p, method="newton-analytic")


def crit_K(model: ModelSpec, region, seeds=None) -> CriticalSetResult:
    """Critical points of K by Newton on its analytic gradient.

    Residual threshold 1e-10.  A K constant over the seed lattice is
    degenerate (_degenerate).
    """
    reg = _as_region(region)
    span = float(np.linalg.norm(reg[:, 1] - reg[:, 0]))
    seed_pts = _seed_points(reg, seeds)
    grad_fn = lambda z: model.K.value_and_gradient(z)[1]
    kvals, kgrads = model.K.value_and_gradient(seed_pts)
    flat = _degenerate("CritK", kgrads, float(np.abs(kvals).max()), "K is constant over the seed lattice")
    if flat:
        return flat
    roots, resids = _newton_roots(grad_fn, seed_pts, reg, span, lambda z, r: r < 1e-10)
    return CriticalSetResult("CritK", roots, resids, method="newton-analytic")


def find_Sstar(model: ModelSpec, candidates, solutions_provider=None) -> CriticalSetResult:
    """Weak-concentration membership of finitely many candidate points.

    For each candidate the directional brackets are evaluated over the 26
    lattice directions (model.LATTICE_DIRECTIONS); membership needs the
    upper bracket above -1e-4 and the lower below +1e-4 in every direction
    (the brackets are linear in the direction for a single orbit, so the
    lattice net decides membership up to that tolerance).  The reported
    residual is the worst violation max(-sup, inf) over the net.

    With no solutions_provider the brackets come from the moments of the
    radial ground state, which is exact for the least-energy representation
    and the only route whose quadrature error sits below 1e-4.  A provider
    mapping z to a list of computed 3D solutions switches to the sampled
    bracket: one gamma_pm call per candidate over the whole net, which
    reads each solution's translation identity at eps = 0
    (diagnostics.pucci_serrin_residual) once.  Its failures propagate,
    the identity's boundary-mass refusal among them.
    """
    points, resids, notes = [], [], []
    for cand in candidates:
        z = np.asarray(cand, dtype=np.float64)
        if solutions_provider is None:
            prof = ground_state(FrozenPoint.from_model(model, z), model.nonlin)
            his = los = LATTICE_DIRECTIONS @ prof.grad_sigma
        else:
            his, los = gamma_pm(z, LATTICE_DIRECTIONS, model, solutions_provider(z))
        residual = float(np.maximum(-his, los).max())
        if np.all(his >= -1e-4) and np.all(los <= 1e-4):
            points.append(z)
            resids.append(residual)
        else:
            notes.append(f"candidate {z.tolist()} rejected: worst bracket {residual:.3e}")
    method = "moments" if solutions_provider is None else "gamma-pm"
    return CriticalSetResult("Sstar", points, resids, method=method, notes=notes)


@dataclass
class DriftStudy:
    """dist(S_p, Crit K) per p, with a monotone-decrease summary.

    distances uses the one-sided reading: max over S_p of the distance to
    the nearest critical point of K; a nonempty or degenerate S_p reads 0
    against a degenerate Crit K.  Any other S_p without points is recorded
    in gaps and carries nan; so is every p when Crit K came back empty
    without being degenerate, since there is nothing to measure to.
    monotone_decreasing covers the non-gap entries in order, and is False
    when there are none.
    """

    p_list: list
    distances: list
    gaps: list
    monotone_decreasing: bool


def p_to_5_study(crit: CriticalSetResult, sp_results) -> DriftStudy:
    """dist(S_p, Crit K) over computed sets: one Crit K result and one S_p
    result per p, in increasing p.  It searches nothing, only measures."""
    p_list = [float(sp.p) for sp in sp_results]
    if not all(a < b for a, b in zip(p_list, p_list[1:])):
        raise LandscapeError("p_list must increase toward 5")
    if not (crit.points or crit.degenerate):
        return DriftStudy(p_list, [float("nan")] * len(p_list), list(p_list), False)
    distances, gaps = [], []
    for sp in sp_results:
        if crit.degenerate and (sp.points or sp.degenerate):
            distances.append(0.0)
        elif not sp.points:
            gaps.append(sp.p)
            distances.append(float("nan"))
        else:
            distances.append(
                max(
                    min(float(np.linalg.norm(z - c)) for c in crit.points)
                    for z in sp.points
                )
            )
    seen = [d for d in distances if np.isfinite(d)]
    monotone = bool(seen) and all(b <= a + 1e-12 for a, b in zip(seen, seen[1:]))
    return DriftStudy(p_list, distances, gaps, monotone)

