"""Radial ground states of the frozen-coefficient scalar problem.

At a point z the problem is -Lap u + V(z) u = K(z) f(u^2) u on R^3, and the
least energy among nontrivial solutions defines the ground-energy landscape
over z.  ground_energy is the production route to Sigma and the one place
that picks the closed form or shooting for it.  The other routes are
cross-checks: radial shooting (sigma_r), the closed-form rescaling to the
canonical V=K=1 problem for powers, a constrained minimization of the
kinetic term, and the 3D flow on a box grid, which lives in
magnetic_solver.solve_frozen_magnetic and fields.Hamiltonian.descend and
reads this module only through a profile sample_profile_on_grid puts on
the grid.  They deliberately share as little code as possible so they can
check each other.

For a power nonlinearity the ground state at z is an exact rescaling of the
cached canonical profile, so ground_state shoots nothing there; shooting is
the oracle the other routes are checked against and the only route to a
profile for a custom f.  A profile's method records which route made it.

Shooting keeps a bracket of amplitudes u(0) by the verdicts of its
integrations (overshoot: u crosses zero; undershoot: u turns back up) and
closes it on the tail miss v + (sqrt V + 1/r) u, which is smooth in the
amplitude: at n steps down to a relative width of 1e-9, then at the
profile's step down to 1e-14.  Each step shoots one amplitude, the secant
root of the misses moved past the root toward the bracket's far end and
held within bisection's reach (_narrow, an ITP rule), so the search cannot
stall.  The fine stage starts from the coarse pair's miss slope, which
predicts the fine root from one fine shot (_fine_bracket).  The profile is
the stored trajectory of the fine bracket's lower end, so no integration
runs twice.

A radial profile carries the point and the f it was solved for, and its
integrals live on it: RadialProfile.moments computes them once, on first
use, and the profile's energy (Sigma at the point) and grad_sigma (the
envelope bracket) read them.  radial_residual takes the profile alone.

Radial integrals are _simpson's, scipy's composite Simpson rule to the bit.
scipy is loaded only by the bracketed root solves in _amplitude_scale and
fields._nehari_scale, which import brentq where they run, on a custom f's
routes.  No power-model command loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid3, SolverError
from .model import Nonlinearity


class BracketError(SolverError):
    """Shooting could not bracket the ground-state amplitude."""


# Shooting integrates to _R0 / sqrt(V): the dimensionless tail length is fixed,
# which keeps scaled parameter sets on identical node ladders.
_R0 = 15.0
_SPLICE_RATIO = 1e-5  # switch to the exact linear tail once u drops below this
_TAIL_RATIO = 1e-11  # extend until u is below this times u(0)


@dataclass(frozen=True)
class FrozenPoint:
    """Coefficient values frozen at a point z.

    grad_Vz / grad_Kz are optional extras (from_model fills them) so the
    landscape gradient can be assembled without another model lookup.
    """

    z: tuple
    Vz: float
    Kz: float
    grad_Vz: tuple | None = None
    grad_Kz: tuple | None = None

    def __post_init__(self):
        if not (self.Vz > 0 and self.Kz > 0):
            raise SolverError(f"frozen coefficients must be positive, got V={self.Vz}, K={self.Kz}")

    @classmethod
    def from_model(cls, model, z):
        z = np.asarray(z, dtype=np.float64)
        v, gv = model.V.value_and_gradient(z)
        k, gk = model.K.value_and_gradient(z)
        return cls(tuple(z), float(v), float(k), tuple(gv), tuple(gk))


@dataclass(frozen=True)
class RadialProfile:
    """Radial ground state u(r) sampled on r_j = j dr, j = 0..n.

    du holds the integrator's derivative at the same nodes.  Beyond
    splice_index the profile is the exact linear tail c exp(-sqrt(V) r) / r,
    value-matched to the integrated solution.  point and nonlin are what it
    solves -u'' - (2/r) u' + V u = K f(u^2) u for.  method says how it was
    made: "shooting", or "rescaled" from the canonical profile by
    ground_state.
    """

    r_max: float
    n: int
    u: np.ndarray
    du: np.ndarray
    point: FrozenPoint
    nonlin: Nonlinearity
    splice_index: int
    method: str = "shooting"

    @functools.cached_property
    def moments(self) -> dict:
        """The radial integrals everything downstream is made of.

        T = int |grad u|^2, mass2 = int u^2, intF = int F(u^2),
        intfu2 = int f(u^2) u^2, all over R^3 (weight 4 pi r^2).  On the
        manifold T + V mass2 = K intfu2 (Nehari).
        """
        r, dr = self.r, self.dr
        w = 4.0 * np.pi * r * r
        u2 = self.u**2
        return {
            "T": _simpson(self.du**2 * w, dr),
            "mass2": _simpson(u2 * w, dr),
            "intF": _simpson(np.asarray(self.nonlin.F(u2), dtype=np.float64) * w, dr),
            "intfu2": _simpson(np.asarray(self.nonlin.f(u2), dtype=np.float64) * u2 * w, dr),
        }

    @property
    def energy(self) -> float:
        """I_z(u) = (1/2)(kinetic + V mass) - int K F(u^2): Sigma at the point."""
        mom = self.moments
        return 0.5 * (mom["T"] + self.point.Vz * mom["mass2"]) - self.point.Kz * mom["intF"]

    @property
    def grad_sigma(self):
        """grad Sigma = mass2 grad V / 2 - intF grad K, the envelope bracket,
        from the point's coefficient gradients; None when it carries none."""
        pt = self.point
        if pt.grad_Vz is None or pt.grad_Kz is None:
            return None
        mom = self.moments
        return 0.5 * mom["mass2"] * np.asarray(pt.grad_Vz) - mom["intF"] * np.asarray(pt.grad_Kz)

    @property
    def dr(self) -> float:
        return self.r_max / self.n

    @property
    def r(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dr

    @property
    def u0(self) -> float:
        return float(self.u[0])


@dataclass
class ConstrainedSigma:
    """Result of the constrained kinetic minimization.

    sigma is the ground energy after the dilation identification
    sigma_raw^(3/2) / (3 sqrt 6); sigma_raw is the constrained minimum itself.
    """

    sigma: float
    sigma_raw: float
    steps: int
    constraint_drift: float
    t_decrease: float


# ---------------------------------------------------------------------------
# radial shooting

def _amplitude_scale(point: FrozenPoint, nonlin) -> float:
    """Center of the shooting ladder: where K f balances V."""
    if nonlin.is_power:
        return (point.Vz / (point.Kz * nonlin.lam)) ** (1.0 / (nonlin.p - 1.0))
    s = np.logspace(-12, 12, 97)
    bal = point.Kz * np.asarray(nonlin.f(s), dtype=np.float64) - point.Vz
    idx = np.nonzero(np.sign(bal[:-1]) * np.sign(bal[1:]) <= 0)[0]
    if idx.size == 0:
        raise BracketError("K f(s) never crosses V; cannot scale the shooting ladder")
    from scipy.optimize import brentq

    root = brentq(lambda t: point.Kz * float(nonlin.f(t)) - point.Vz, s[idx[0]], s[idx[0] + 1])
    return math.sqrt(root)


def _make_force(point: FrozenPoint, nonlin):
    Vz, Kz = point.Vz, point.Kz
    if nonlin.is_power:
        lam, ex = nonlin.lam, nonlin.p - 1.0
        def force(u):
            return Vz * u - Kz * lam * abs(u) ** ex * u
    else:
        def force(u):
            return Vz * u - Kz * float(nonlin.f(u * u)) * u
    return force


def _series_start(u0, dr, force):
    """Taylor coefficients of the regular solution through r^6.

    u = u0 + a2 r^2 + a4 r^4 + a6 r^6 with 6 a2 = G(u0), 20 a4 = G'(u0) a2,
    42 a6 = G'(u0) a4 + G''(u0) a2^2 / 2, G = force.  The derivatives are
    differenced numerically so custom nonlinearities need no extra interface.
    """
    G0 = force(u0)
    d = 1e-4 * max(abs(u0), 1.0)
    Gp = (force(u0 + d) - force(u0 - d)) / (2.0 * d)
    Gpp = (force(u0 + d) - 2.0 * G0 + force(u0 - d)) / (d * d)
    a2 = G0 / 6.0
    a4 = Gp * a2 / 20.0
    a6 = (Gp * a4 + 0.5 * Gpp * a2 * a2) / 42.0

    def uval(r):
        return u0 + r * r * (a2 + r * r * (a4 + r * r * a6))

    def vval(r):
        return r * (2.0 * a2 + r * r * (4.0 * a4 + r * r * 6.0 * a6))

    return uval, vval


def _integrate(u0, dr, nsteps, force):
    """March u' = v, v' = -2v/r + force(u) outward from r = 0.

    The first two nodes come from the Taylor series (an RK4 step across the
    coordinate singularity loses two orders there); RK4 takes over from
    r = 2 dr, its four stages written out.  Nodes below 256 take
    ceil(256 / i) substeps; from node 256 on one step per node runs in a
    loop of its own, with the same operations in the same order as a
    substep loop with m = 1, so splitting the loop moved no bit.  Returns
    (status, m, us, vs): status +1 once u crosses zero (overshoot), -1 once
    v turns nonnegative (undershoot), 0 if neither happened; nodes 0..m of
    the stored trajectory us, vs are the monotone part.
    """
    u, v = float(u0), 0.0
    uval, vval = _series_start(u, dr, force)
    us = np.empty(nsteps + 1)
    vs = np.empty(nsteps + 1)
    us[0], vs[0] = u, v
    for i in range(min(nsteps, 256)):
        if i < 2:
            u, v = uval((i + 1) * dr), vval((i + 1) * dr)
        else:
            # substep while the step is a noticeable fraction of the radius:
            # the 2v/r term reduces the RK4 order near the axis, and steep
            # profiles amplify whatever error the first full steps inject
            m = -(-256 // i)
            h = dr / m
            half = 0.5 * h
            r = i * dr
            for q in range(m):
                r0 = r + q * h
                rh = r0 + half
                k1v = -2.0 * v / r0 + force(u)
                k2u = v + half * k1v
                k2v = -2.0 * k2u / rh + force(u + half * v)
                k3u = v + half * k2v
                k3v = -2.0 * k3u / rh + force(u + half * k2u)
                k4u = v + h * k3v
                k4v = -2.0 * k4u / (r0 + h) + force(u + h * k3u)
                u, v = (
                    u + h * (v + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0,
                    v + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
                )
        us[i + 1], vs[i + 1] = u, v
        if u <= 0.0:
            return 1, i, us, vs
        if v >= 0.0:
            return -1, i, us, vs
    # one RK4 step per node from here on: the substepped loop's operations
    # with m = 1, so h = dr and r0 = i dr
    half = 0.5 * dr
    for i in range(256, nsteps):
        r0 = i * dr
        rh = r0 + half
        k1v = -2.0 * v / r0 + force(u)
        k2u = v + half * k1v
        k2v = -2.0 * k2u / rh + force(u + half * v)
        k3u = v + half * k2v
        k3v = -2.0 * k3u / rh + force(u + half * k2u)
        k4u = v + dr * k3v
        k4v = -2.0 * k4u / (r0 + dr) + force(u + dr * k3u)
        u, v = (
            u + dr * (v + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0,
            v + dr * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
        )
        us[i + 1], vs[i + 1] = u, v
        if u <= 0.0:
            return 1, i, us, vs
        if v >= 0.0:
            return -1, i, us, vs
    return 0, nsteps, us, vs


@dataclass
class _Shot:
    """One integration from the amplitude a, as _integrate returned it."""

    a: float
    status: int
    m: int
    u: np.ndarray
    v: np.ndarray


def _miss(shot: _Shot, j: int, dr: float, s: float) -> float:
    """The tail miss v + (s + 1/r) u of a shot at node j of its step dr."""
    return shot.v[j] + (s + 1.0 / (j * dr)) * shot.u[j]


def _secant_root(lo: _Shot, hi: _Shot, dr: float, s: float):
    """Amplitude where the line through the two shots' tail misses is zero.

    The miss v + (s + 1/r) u vanishes on the decaying linear tail
    c exp(-s r) / r and measures the growing mode e^{+s r}, whose sign is
    what tells overshoot from undershoot, so it is smooth in the amplitude
    with its root at the critical one.  It is read at the node 7/8 of the
    way along the shorter monotone run of the two, where both trajectories
    exist.  None when that node is on the series start or the misses tie.
    """
    j = min(lo.m, hi.m)
    j -= j // 8
    if j < 2:
        return None
    m_lo = _miss(lo, j, dr, s)
    m_hi = _miss(hi, j, dr, s)
    if m_lo == m_hi:
        return None
    return float(hi.a - m_hi * (hi.a - lo.a) / (m_hi - m_lo))


def _narrow(lo: _Shot, hi: _Shot, shoot, dr: float, s: float, tol: float):
    """Shrink the (undershoot, overshoot) bracket until hi - lo <= tol hi.

    One shot per step, placed by the ITP rule (interpolate, truncate,
    project; Oliveira and Takahashi, ACM TOMS 47, 2021) with the secant root
    x of the tail misses as the interpolant.  The secant root's error is set
    by the bracket end farther from the root, so the shot goes past x toward
    the midpoint, which is that end's side, by d = kappa width^2 / hi (at
    least 0.45 tol hi): landing beyond the root, it replaces the far end.
    kappa starts at 0.05, halves after a shot that crossed and grows
    eightfold after one that fell short, so d follows the secant's accuracy,
    quadratic in the width for steep powers, nearly linear toward p = 1.
    The shot is then projected into the ball around the midpoint whose
    radius keeps the width within that of bisection with one step to spare:
    after k shots it is at most tol lo0 2^(n - k), n the bisection count
    plus one, so the search cannot stall.  The verdict of each shot decides
    which end it replaces, so the bracket always holds the critical
    amplitude.  Only the two ends' trajectories are kept.
    """
    eps = 0.5 * tol * lo.a
    n_max = max(0, math.ceil(math.log2((hi.a - lo.a) / (2.0 * eps)))) + 1
    kappa = 0.05
    # two steps beyond the bound absorb rounding in the last midpoints
    for k in range(n_max + 2):
        width = hi.a - lo.a
        if width <= tol * hi.a:
            return lo, hi
        mid = 0.5 * (lo.a + hi.a)
        x = _secant_root(lo, hi, dr, s)
        side = 0.0
        if x is not None and lo.a < x < hi.a:
            side = 1.0 if mid > x else -1.0
            d = max(kappa * width * width / hi.a, 0.45 * tol * hi.a)
            x = x + side * d if d <= abs(mid - x) else mid
        else:
            x = mid
        r = max(0.0, eps * 2.0 ** (n_max - k) - 0.5 * width)
        x = min(max(x, mid - r), mid + r)
        shot = shoot(x)
        if side:
            kappa = kappa / 2.0 if (shot.status == 1) == (side > 0) else kappa * 8.0
        if shot.status == 1:
            hi = shot
        else:
            lo = shot
    raise SolverError(f"shooting bracket failed to shrink below {tol:g} relative width")


def shoot_radial(point: FrozenPoint, nonlin, n: int = 4000, refine: int = 8) -> RadialProfile:
    """Shooting for the radial ground state at a frozen point.

    The amplitude ladder spans [0.1, 100] times the balance scale and is
    shot upward until its first (undershoot, overshoot) pair.  _narrow
    closes that bracket by secant steps on the smooth tail miss, the
    verdicts keeping it: at n steps down to a relative width of 1e-9, then,
    from the bracket _fine_bracket finds, at refine * n steps, integrated
    out to 1.35 refine * n, down to 1e-14, near where rounding makes the
    verdicts themselves noisy.  The kept profile is the fine bracket's lower
    end, its stored trajectory cut at refine * n nodes: bit for bit the
    integration a new run to refine * n steps would make.  The fine step is
    what pushes the profile's finite-difference residual below the contract
    threshold.
    """
    dr = _R0 / math.sqrt(point.Vz) / n
    s = math.sqrt(point.Vz)
    force = _make_force(point, nonlin)

    def coarse(a):
        return _Shot(a, *_integrate(a, dr, n, force))

    lo = None
    for a in _amplitude_scale(point, nonlin) * 10.0 ** np.linspace(-1.0, 2.0, 25):
        hi = coarse(float(a))
        if lo is not None and lo.status != 1 and hi.status == 1:
            break
        lo = hi
    else:
        raise BracketError(
            "no undershoot/overshoot pair on the amplitude ladder; "
            "the frozen problem has no bracketable ground state at this point"
        )
    lo, hi = _narrow(lo, hi, coarse, dr, s, 1e-9)

    # Second stage at the profile resolution.  The coarse critical amplitude
    # is off the fine integrator's one by its truncation error, and that
    # offset feeds the growing mode e^{+sr}, which would put a visible
    # derivative kink at the tail splice.  The extended domain keeps verdicts
    # arriving while the bracket narrows toward the fine critical amplitude.
    refine = max(1, int(refine))
    n_f, dr_f = n * refine, dr / refine
    n_ext = int(1.35 * n_f)

    def fine(a):
        return _Shot(a, *_integrate(a, dr_f, n_ext, force))

    lo, _ = _narrow(*_fine_bracket(lo, hi, fine, dr, refine, s, 1e-14), fine, dr_f, s, 1e-14)
    m = min(lo.m, n_f)
    return _spliced_profile(point, nonlin, lo.u[: m + 1], lo.v[: m + 1], dr_f)


def _fine_bracket(lo: _Shot, hi: _Shot, fine, dr: float, refine: int, s: float, tol: float):
    """(undershoot, overshoot) shots of fine next to the coarse lower end a0.

    The fine miss of a0 over the slope of the coarse pair's misses, all read
    at one radius 7/8 of the way along the shortest run, predicts the fine
    critical amplitude, and the second shot goes just past it, by 0.45 tol
    a0.  When the prediction is missing or on the wrong side, that window
    is 1e-8 a0.  While the verdicts agree, each next window is the secant
    extrapolation of the last two fine shots' misses, 1.5 times as far, and
    at least four times the last window, up to 14 times.
    """
    dr_f = dr / refine
    a0 = lo.a
    shot = fine(a0)
    down = shot.status == 1
    f_lo, f_hi = (None, shot) if down else (shot, None)
    w = 1e-8 * a0
    j = min(lo.m, hi.m, shot.m // refine)
    j -= j // 8
    if j >= 2:
        slope = (_miss(hi, j, dr, s) - _miss(lo, j, dr, s)) / (hi.a - lo.a)
        if slope != 0.0:
            x = a0 - _miss(shot, j * refine, dr_f, s) / slope
            if (x < a0) == down:
                w = abs(x - a0) + 0.45 * tol * a0
    prev = shot
    for _ in range(14):
        shot = fine(a0 - w if down else a0 + w)
        if shot.status == 1:
            f_hi = shot
        else:
            f_lo = shot
        if f_lo is not None and f_hi is not None:
            return f_lo, f_hi
        x = _secant_root(prev, shot, dr_f, s)
        prev = shot
        if x is not None and (x < a0) == down:
            w = max(4.0 * w, 1.5 * abs(x - a0))
        else:
            w *= 4.0
    raise SolverError("fine-stage shooting lost the overshoot/undershoot bracket")


def _spliced_profile(point: FrozenPoint, nonlin, us, vs, dr) -> RadialProfile:
    """The profile of the monotone run us, vs (step dr) with its linear tail.

    The run is kept up to the first node below _SPLICE_RATIO u(0); from there
    the exact linear tail c exp(-s r) / r, value-matched at that node, carries
    the profile out to where it is _TAIL_RATIO u(0).
    """
    u0 = us[0]
    below = np.nonzero(us < _SPLICE_RATIO * u0)[0]
    t = int(below[0]) if below.size else us.size - 1
    if t < 2:
        raise SolverError("profile drops below the splice ratio immediately; n too small")

    s = math.sqrt(point.Vz)
    rt = t * dr
    r_end = rt + math.log(us[t] / (_TAIL_RATIO * u0)) / s
    n_tot = int(math.ceil(r_end / dr))
    r_full = np.arange(n_tot + 1) * dr
    u_full = np.zeros(n_tot + 1)
    du_full = np.zeros(n_tot + 1)
    u_full[: t + 1] = us[: t + 1]
    du_full[: t + 1] = vs[: t + 1]
    tail_r = r_full[t + 1 :]
    u_full[t + 1 :] = us[t] * (rt / tail_r) * np.exp(-s * (tail_r - rt))
    du_full[t + 1 :] = u_full[t + 1 :] * (-s - 1.0 / tail_r)
    return RadialProfile(
        r_max=n_tot * dr, n=n_tot, u=u_full, du=du_full,
        point=point, nonlin=nonlin, splice_index=t,
    )


def _simpson(y: np.ndarray, dr: float) -> float:
    """Composite Simpson's rule for the samples y on the nodes j dr.

    Pairs of intervals take the three-point rule; with an even node count
    the last interval takes Cartwright's correction (J. Math. Sci. Math.
    Educ. 12, 2017) with both spacings dr.  Every operation is that of
    scipy.integrate.simpson(y, dx=dr) (scipy 1.17) in the same order, so the
    value agrees with it bit for bit.  At least three nodes.
    """
    n = y.size
    stop = n - 2 if n % 2 else n - 3
    total = np.sum(y[0:stop:2] + 4.0 * y[1 : stop + 1 : 2] + y[2 : stop + 2 : 2]) * (dr / 3.0)
    if n % 2 == 0:
        a = b = np.float64(dr)
        alpha = (2 * b**2 + 3 * a * b) / (6 * (b + a))
        beta = (b**2 + 3.0 * a * b) / (6 * a)
        eta = b**3 / (6 * a * (a + b))
        total = total + (alpha * y[-1] + beta * y[-2] - eta * y[-3])
    return float(total)


def radial_residual(prof: RadialProfile) -> float:
    """RMS of -u'' - (2/r) u' + V u - K f(u^2) u on the stored nodes.

    Sixth-order differences with even-symmetry ghosts across r = 0; sharp
    cores carry sixth derivatives of order u(0) k^6 (k the core wavenumber),
    which a fourth-order stencil would misreport as solver error.  The three
    outermost nodes are skipped (their stencil would need data beyond r_max).
    """
    u, dr, point = prof.u, prof.dr, prof.point
    up = np.concatenate([[u[3], u[2], u[1]], u])
    d2 = (
        2.0 * (up[:-6] + up[6:])
        - 27.0 * (up[1:-5] + up[5:-1])
        + 270.0 * (up[2:-4] + up[4:-2])
        - 490.0 * up[3:-3]
    ) / (180.0 * dr * dr)
    d1 = (
        -(up[:-6] - up[6:])
        + 9.0 * (up[1:-5] - up[5:-1])
        - 45.0 * (up[2:-4] - up[4:-2])
    ) / (60.0 * dr)
    nv = d2.size  # nodes 0 .. n-3
    r = prof.r[:nv]
    fu = np.asarray(prof.nonlin.f(u[:nv] ** 2), dtype=np.float64) * u[:nv]
    res = np.empty(nv)
    res[0] = -3.0 * d2[0] + point.Vz * u[0] - point.Kz * fu[0]
    res[1:] = -d2[1:] - 2.0 * d1[1:] / r[1:] + point.Vz * u[1:nv] - point.Kz * fu[1:]
    return float(np.sqrt(np.mean(res**2)))


# ---------------------------------------------------------------------------
# ground energy routes

def sigma_r(point: FrozenPoint, nonlin, n: int = 4000):
    """(Sigma, grad Sigma) at z by shooting; the gradient comes from the
    coefficient brackets (d/dw) Sigma = <grad V, w> mass2/2 - <grad K, w> intF
    and is None when the point carries no coefficient gradients."""
    prof = shoot_radial(point, nonlin, n=n)
    return prof.energy, prof.grad_sigma


def canonical_energy(p: float, lam: float = 1.0, n: int = 4000) -> float:
    """Ground energy of the canonical problem V = K = 1.

    One shot per process for each (p, lam, n), however the arguments are
    spelled: canonical_energy(2.6, n=600) and canonical_energy(2.6, 1.0, 600)
    share it, and so does canonical_profile.
    """
    return _canonical(float(p), float(lam), int(n)).energy


def canonical_profile(p: float, lam: float = 1.0, n: int = 4000) -> RadialProfile:
    return _canonical(float(p), float(lam), int(n))


@functools.cache
def _canonical(p, lam, n):
    return shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 1.0, 1.0), Nonlinearity.power(lam, p), n=n)


def ground_state(point: FrozenPoint, nonlin) -> RadialProfile:
    """Radial ground state at a frozen point.

    For a power nonlinearity this is the cached canonical profile Q rescaled,
    u(r) = (V/K)^(1/(p-1)) Q(sqrt(V) r) on Q's node count, and no shot runs;
    at V = K = 1 the arrays equal Q's bit for bit.  Any other nonlinearity is
    shot at the point.
    """
    if not nonlin.is_power:
        return shoot_radial(point, nonlin)
    Q = canonical_profile(nonlin.p, nonlin.lam)
    s = math.sqrt(point.Vz)
    amp = (point.Vz / point.Kz) ** (1.0 / (nonlin.p - 1.0))
    return RadialProfile(
        r_max=Q.r_max / s, n=Q.n, u=amp * Q.u, du=amp * s * Q.du,
        point=point, nonlin=nonlin, splice_index=Q.splice_index, method="rescaled",
    )


def explicit_sigma_and_grad(z, model):
    """Vectorized explicit ground energy E(p, lam) V^a K^(-b) and its gradient.

    a = (5-p)/(2p-2), b = 2/(p-1).  Power nonlinearities only.
    """
    if not model.nonlin.is_power:
        raise SolverError("the explicit ground-energy formula needs the power nonlinearity")
    p = model.nonlin.p
    E = canonical_energy(p, model.nonlin.lam)
    a = (5.0 - p) / (2.0 * p - 2.0)
    b = 2.0 / (p - 1.0)
    v, gv = model.V.value_and_gradient(z)
    k, gk = model.K.value_and_gradient(z)
    v = np.asarray(v, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    sigma = E * v**a * k ** (-b)
    grad = sigma[..., None] * (a * gv / v[..., None] - b * gk / k[..., None])
    return sigma, grad


def ground_energy(z, model, n: int = 4000, failures: list | None = None):
    """(Sigma, grad Sigma, method) at the points z, shape (..., 3).  Powers
    take the explicit formula in one vectorized call ("explicit"); any other
    f is shot at each point with n radial steps ("shooting"), stacked to the
    shape of z.  A failed shot raises, unless failures is a list: then the
    point keeps nan and (flat index, message) is appended to it."""
    if model.nonlin.is_power:
        return (*explicit_sigma_and_grad(z, model), "explicit")
    z = np.asarray(z, dtype=np.float64)
    flat = z.reshape(-1, 3)
    sig, grad = np.full(len(flat), np.nan), np.full(flat.shape, np.nan)
    for i, zi in enumerate(flat):
        try:
            sig[i], grad[i] = sigma_r(FrozenPoint.from_model(model, zi), model.nonlin, n)
        except Exception as exc:
            if failures is None:
                raise
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    return sig.reshape(z.shape[:-1]), grad.reshape(z.shape), "shooting"


# ---------------------------------------------------------------------------
# constrained route: minimize kinetic energy at fixed nonlinear volume

def _radial_T(u, a2, dr):
    d = _radial_D(u, dr)
    return float(np.sum(a2 * d * d))


def _radial_D(u, dr):
    d = np.empty_like(u)
    d[1:-1] = (u[2:] - u[:-2]) / (2.0 * dr)
    d[0] = 0.0  # even symmetry across r = 0
    d[-1] = -u[-2] / (2.0 * dr)  # profile continues as zero beyond r_max
    return d


def _radial_gradT(u, a2, dr):
    d = _radial_D(u, dr)
    e = 2.0 * a2 * d
    g = np.zeros_like(u)
    g[:-1] -= e[1:] / (2.0 * dr)
    g[1:] += e[:-1] / (2.0 * dr)
    return g


def constrained_sigma(point: FrozenPoint, nonlin, n: int = 3000) -> ConstrainedSigma:
    """Minimize int |grad u|^2 subject to int (K F(u^2) - V u^2 / 2) = 1.

    Starts from the dilation of the shooting profile that lands on the
    constraint, keeps the constraint pinned by an amplitude correction after
    every tangential exact-line-search step (at most 300), and reports both
    the raw constrained minimum and its dilation identification with the
    ground energy, sigma_raw^(3/2) / (3 sqrt 6).
    """
    prof = shoot_radial(point, nonlin, n=n)
    u = prof.u.copy()
    dr = prof.dr
    nn = u.size

    def build_weights(drv):
        r = np.arange(nn) * drv
        c = np.ones(nn)
        c[0] = c[-1] = 0.5
        return 4.0 * np.pi * c * r * r * drv  # trapezoid weights with volume factor

    def P_of(uv, w):
        F = np.asarray(nonlin.F(uv * uv), dtype=np.float64)
        return float(np.sum(w * (point.Kz * F - 0.5 * point.Vz * uv * uv)))

    # dilation u(x / s) scales P by s^3 and T by s; P(prof) = T/6 > 0
    P0 = P_of(u, build_weights(dr))
    if P0 <= 0:
        raise SolverError("constraint volume of the seed profile is not positive")
    dr = dr * P0 ** (-1.0 / 3.0)
    w = build_weights(dr)
    a2 = w  # T(u) = sum a2 * (Du)^2, same quadrature weights

    def restore(uv):
        # amplitude Newton: P(c u) = 1
        c = 1.0
        for _ in range(60):
            cu = c * uv
            val = P_of(cu, w) - 1.0
            if abs(val) < 1e-13:
                break
            f = np.asarray(nonlin.f(cu * cu), dtype=np.float64)
            dPdc = float(np.sum(w * (point.Kz * f * c * uv * uv - point.Vz * c * uv * uv)))
            if dPdc == 0.0:
                raise SolverError("constraint restoration stalled")
            c -= val / dPdc
        return c * uv, abs(P_of(c * uv, w) - 1.0)

    u, drift = restore(u)
    T_hist = [_radial_T(u, a2, dr)]
    max_drift = drift
    steps = 0
    for steps in range(1, 301):
        g = _radial_gradT(u, a2, dr)
        f = np.asarray(nonlin.f(u * u), dtype=np.float64)
        # dP/du_j = w_j (K f(u^2) u - V u), since dF(s)/ds = f(s)/2
        gP = w * (point.Kz * f * u - point.Vz * u)
        nrmP = float(np.dot(gP, gP))
        if nrmP == 0.0:
            break
        d = g - (float(np.dot(g, gP)) / nrmP) * gP
        Qd = _radial_T(d, a2, dr)
        if Qd <= 0:
            break
        eta = float(np.dot(g, d)) / (2.0 * Qd)
        u = u - eta * d
        u, drift = restore(u)
        max_drift = max(max_drift, drift)
        T_hist.append(_radial_T(u, a2, dr))
        if len(T_hist) > 6 and abs(T_hist[-1] - T_hist[-6]) < 1e-12 * T_hist[-1]:
            break
    sigma_raw = T_hist[-1]
    sigma = sigma_raw**1.5 / (3.0 * math.sqrt(6.0))
    return ConstrainedSigma(
        sigma=sigma,
        sigma_raw=sigma_raw,
        steps=steps,
        constraint_drift=max_drift,
        t_decrease=(T_hist[0] - sigma_raw) / T_hist[0],
    )


# ---------------------------------------------------------------------------
# a profile on a box grid

def sample_profile_on_grid(prof: RadialProfile, grid: Grid3, center=None, scale: float = 1.0) -> np.ndarray:
    """Profile values u(|x - center| / scale) sampled on the grid nodes."""
    c = np.asarray(center if center is not None else grid.origin, dtype=np.float64)
    X1, X2, X3 = grid.meshgrid()
    rr = np.sqrt((X1 - c[0]) ** 2 + (X2 - c[1]) ** 2 + (X3 - c[2]) ** 2) / scale
    return np.interp(rr.ravel(), prof.r, prof.u, right=0.0).reshape(grid.dims)
