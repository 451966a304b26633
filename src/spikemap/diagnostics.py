"""Identity checks for computed solutions.

Every check here is a necessary condition a true solution family satisfies: the
vanishing current density of least-energy profiles, the translation-test
integral identity, the exponential decay rate, Clarke criticality of candidate
spike points, and the two concentration metrics; the diamagnetic bound reads
the stencil's hops, so it is Hamiltonian.diamagnetic_slack.  The translation
identity has one formula, pucci_serrin_residual: read at eps in the blow-up
variable it is the strong-sense check, and at eps = 0 it is its limit form, the
envelope bracket gamma_pm bounds for the weak sense.  Nothing in this module
solves the equation; it consumes fields and models produced elsewhere and
reports residuals with their denominators, so a caller can tell "small because
it holds" from "small because everything is".  run_diagnostics gathers the
checks on one magnetic Field3, real or complex, into a plain dict, the report
the CLI writes as it stands; it splits the blow-up view, forms its current and
passes over its shells once each.  The one linear solve, the concentration
metrics' error estimate, is Hamiltonian.solve_linear.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    BoundaryMassWarning,
    Field3,
    Hamiltonian,
    boundary_fraction,
)
from .frozen_solver import ground_energy
from .magnetic_solver import (
    BoundaryMassError,
    pde_residual,
    phase_factor_split,
    rescale,
    spike_location,
)
from .model import LATTICE_DIRECTIONS, ModelSpec


class DiagnosticsError(Exception):
    """A check was asked to run on data it cannot use."""


# x1-planes per slab of the translation identity's integrands
_SLAB = 8


# ---------------------------------------------------------------------------
# the current density

def _grad4(arr: np.ndarray, h: float) -> list[np.ndarray]:
    """Fourth-order central differences along each axis.

    The current density is the only second-order-limited piece of the
    translation test, and it is what caps the residual's refinement rate,
    so it gets the wider stencil.  It is applied to the phase-split profile
    U, whose linear magnetic phase is gone, so it differentiates the
    envelope and not the oscillation.  The two-node border is filled from
    the ordinary second-order formula; the fields this is applied to are
    rim-masked, so those nodes are zeros anyway.
    """
    out = []
    for ax in range(3):
        g = np.gradient(arr, h, axis=ax, edge_order=2)
        f, d = np.moveaxis(arr, ax, 0), np.moveaxis(g, ax, 0)
        d[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
        out.append(g)
    return out


def current_density(U: Field3):
    """Re(i conj(U) grad U) as a (3,) + dims array J, its sup norm over
    sup|U| sup|grad U|, and that denominator, grad being _grad4.

    Least-energy profiles carry no current, so the normalized norm is a
    directly testable smallness certificate for a computed candidate.  J is
    also the current the translation identity reads: Im(conj(U) grad U) = -J.
    """
    g = _grad4(U.values, U.grid.spacing)
    # one component at a time into J, so one complex product is live at once
    J = np.empty((3,) + U.grid.dims)
    for m, gm in enumerate(g):
        J[m] = np.imag(U.values * np.conj(gm))
    sup_J = float(np.sqrt(np.sum(J**2, axis=0)).max())
    denom = float(np.abs(U.values).max()) * float(np.sqrt(sum(np.abs(gm) ** 2 for gm in g)).max())
    norm = sup_J / denom if denom > 0.0 else 0.0
    return J, norm, denom


# ---------------------------------------------------------------------------
# translation-test identities

def pucci_serrin_residual(v: Field3, z0, eps: float, model: ModelSpec):
    """Translation-test residual of the blow-up field v around z0.

    For each coordinate direction k the integral

        int [ <d_k A, A> |v|^2 - Re<(1/i) grad v, (d_k A) conj(v)>
              + d_k V |v|^2 / 2 - d_k K F(|v|^2) ] dx

    vanishes on true solutions of the unit-scale equation; all coefficients
    and their analytic derivatives are read at z0 + eps x.  The current
    Im(conj(v) grad v) is formed from the phase-split profile
    U = exp(-i A(z0).x) v (magnetic_solver.phase_factor_split) as
    A(z0) |v|^2 - J, J = current_density(U), so the stencil never
    differentiates the linear phase.

    At eps = 0 every coefficient is read at z0 and the integrals are the
    limit form: res_k = <d_k A(z0), int Re(i conj(U) grad U)>
    + d_k V(z0) int |U|^2 / 2 - d_k K(z0) int F(|U|^2).  For a real profile
    that is the gradient of the ground-energy map, which ties spike
    locations to its critical points, and its component along w is the
    envelope bracket gamma_pm bounds.

    Returns the 3-vector of integrals and a relative scale: its norm over
    the norm of the 3-vector of term sizes.  A term's size along k is the
    larger of the integrals of its integrand's positive and negative parts:
    its absolute integral when the integrand keeps one sign, half of
    int |integrand| when the two parts cancel, as they do by symmetry at a
    symmetric spike.  So a symmetric solution reads rounding over the size
    of its terms, not rounding over rounding, and the ratio is zero only
    when every integrand is, as for constant coefficients.

    Warns when the box boundary carries more than 1e-5 of the field's L1
    weight, int |v| (boundary_fraction of |v|, not of the mass |v|^2), and
    refuses above 1e-3; on rescale's view that boundary is the wall the
    field was solved against.  The truncation bias of the integrals is of
    the order of that boundary fraction, so 1e-3 keeps it well under the
    1e-2 scale this residual is judged against, while still rejecting
    fields whose tail never fit in the box.
    """
    J = current_density(phase_factor_split(v, z0, model).U)[0]
    return _translation_terms(v, J, z0, eps, model)[:2]


def _translation_terms(v: Field3, J, z0, eps: float, model: ModelSpec):
    """pucci_serrin_residual's (res, rel) and the norm of its term sizes,
    from J, the current_density of v's phase split at z0, after the
    boundary gates.

    The coefficients, their derivatives and the four integrands are formed
    on slabs of _SLAB x1-planes, v and J read by slicing, and each term's
    integral and positive part are summed slab by slab: the peak holds a
    slab's worth of them, not the grid's.
    """
    frac = boundary_fraction(np.abs(v.values))
    if frac > 1e-3:
        raise BoundaryMassError(
            f"blow-up field keeps {frac:.2e} of its L1 weight |v| on the box boundary"
        )
    if frac > 1e-5:
        warnings.warn(
            "boundary shell holds more than 1e-5 of the blow-up field; "
            "the residual integrals are truncated",
            BoundaryMassWarning,
            stacklevel=3,
        )
    grid = v.grid
    z0 = np.asarray(z0, dtype=np.float64)
    Az0 = model.A_at(z0)[:, None, None, None]
    x1, x2, x3 = (grid.axis(k) for k in range(3))
    # per term, its integral and the integral of its positive part
    sums, ups = np.zeros((4, 3)), np.zeros((4, 3))
    for i in range(0, grid.dims[0], _SLAB):
        sl = slice(i, i + _SLAB)
        m2 = np.abs(v.values[sl]) ** 2
        Q = z0 + eps * np.stack(np.meshgrid(x1[sl], x2, x3, indexing="ij"), axis=-1)
        _, gV = model.V.value_and_gradient(Q)
        _, gK = model.K.value_and_gradient(Q)
        Aj = model.A_jacobian(Q)
        terms = (
            np.einsum("abcmk,abcm->abck", Aj, model.A_at(Q)) * m2[..., None],
            # Im(conj(v) grad v) = A(z0) |v|^2 - J
            -np.einsum("abcmk,mabc->abck", Aj, Az0 * m2 - J[:, sl]),
            0.5 * gV * m2[..., None],
            -gK * np.asarray(model.nonlin.F(m2), dtype=np.float64)[..., None],
        )
        for t, f in enumerate(terms):
            up = np.maximum(f, 0.0)
            # per component: numpy sums one strided run pairwise, but adds
            # node by node over three axes that keep a fourth, and a slab's
            # share of an x1-odd term, tens in size, cancels only across slabs
            for k in range(3):
                sums[t, k] += f[..., k].sum()
                ups[t, k] += up[..., k].sum()
    vol = grid.cell_volume
    res = sums.sum(axis=0) * vol
    # a term's integral is its positive part less its negative part; the
    # larger of the two is its size before any cancellation
    size = np.maximum(ups, ups - sums).sum(axis=0) * vol
    scale = float(np.linalg.norm(size))
    rel = float(np.linalg.norm(res)) / scale if scale > 0.0 else 0.0
    return res, rel, scale


# ---------------------------------------------------------------------------
# decay

@dataclass
class DecayFit:
    """Exponential rates fitted to shell maxima of |u|.

    rate is the raw slope of log |u|; corrected_rate is the slope of
    log(r |u|), which removes the 1/r geometry factor of three-dimensional
    decay and is the number to compare against sqrt(V).
    """

    rate: float
    corrected_rate: float
    window: tuple
    n_points: int


def _shell_maxima(u):
    """Radii h j, the maxima of |u| over the shells round(r / h) = j around
    the point 0, which in a blow-up view (rescale) is the spike, and the
    radius of each maximum's node (h j for an empty shell).  A decaying
    field peaks on its shell's innermost nodes, anywhere within h / 2 of
    h j, so the fit reads each maximum at its node's radius."""
    grid = u.grid
    h = grid.spacing
    X = grid.meshgrid()
    rr = np.sqrt(sum(X[m] ** 2 for m in range(3))).ravel()
    mag = np.abs(u.values).ravel()
    idx = np.rint(rr / h).astype(np.int64)
    sup = np.zeros(int(idx.max()) + 1)
    np.maximum.at(sup, idx, mag)
    radii = h * np.arange(sup.size)
    at = radii.copy()
    top = mag == sup[idx]
    at[idx[top]] = rr[top]
    return radii, sup, at


def decay_fit(u, window=None) -> DecayFit:
    """Least-squares decay rates of a field or radial profile over [r1, r2].

    Fields are reduced to shell maxima around the point 0, the spike of a
    blow-up view, first (the bound being certified is sup-type).  The
    window selects shells by their radius h j and the fit reads each
    maximum at its node's radius.  Shells with maxima at or below 1e-12
    are dropped; an empty window raises.

    The default window of a field runs from twice the full width at half
    maximum of its shell maxima to 0.8 times the distance from the point 0
    to the nearest wall; that of a radial profile frozen at z runs from
    twice its decay length 1/sqrt(V(z)) to 0.8 r_max.
    """
    if hasattr(u, "grid"):
        radii, sup, at = _shell_maxima(u)
        if window is None:
            peak = int(np.argmax(sup))
            after = np.flatnonzero(sup[peak:] < 0.5 * sup[peak])
            half_width = radii[peak + after[0]] if after.size else radii[-1]
            wall = min(u.grid.half_extent(k) - abs(u.grid.origin[k]) for k in range(3))
            window = (4.0 * half_width, 0.8 * wall)
    else:
        radii = at = np.asarray(u.r, dtype=np.float64)
        sup = np.abs(np.asarray(u.u, dtype=np.float64))
        if window is None:
            window = (2.0 / np.sqrt(u.point.Vz), 0.8 * u.r_max)
    r1, r2 = float(window[0]), float(window[1])
    keep = (radii >= r1) & (radii <= r2) & (sup > 1e-12) & (at > 0)
    if int(keep.sum()) < 2:
        raise DiagnosticsError(f"decay window [{r1}, {r2}] selects fewer than two shells")
    r = at[keep]
    y = np.log(sup[keep])
    rate = -float(np.polyfit(r, y, 1)[0])
    corrected = -float(np.polyfit(r, y + np.log(r), 1)[0])
    return DecayFit(rate=rate, corrected_rate=corrected, window=(r1, r2), n_points=int(keep.sum()))


# ---------------------------------------------------------------------------
# Clarke criticality of the ground-energy map

@dataclass
class ClarkeVerdict:
    member: bool
    margin: float
    threshold: float
    directions: int


def clarke_critical_test(z, model: ModelSpec, sigma=None) -> ClarkeVerdict:
    """Sampled test of 0 being a generalized gradient of the energy map at z.

    The sampling plan is fixed.  Difference quotients
    (sigma(xi + lam w) - sigma(xi)) / lam are taken for xi in
    {z, z - rho w, z + rho w}, rho = 1e-3, and lam in (1e-3, 5e-4, 2.5e-4),
    over the 26 lattice directions w plus 50 unit vectors drawn with seed 0.
    The membership margin is the worst direction's best difference quotient;
    membership requires it to clear the noise threshold
    3 (rho + max lam) curv, curv being a curvature scale sampled from the
    lambda ladder.  sigma overrides the evaluator (signature (m, 3) -> (m,)),
    frozen_solver.ground_energy by default.
    """
    z = np.asarray(z, dtype=np.float64)
    rho, lams = 1e-3, np.array([1e-3, 5e-4, 2.5e-4])
    raw = np.random.default_rng(0).standard_normal((50, 3))
    dirs = np.concatenate([LATTICE_DIRECTIONS, raw / np.linalg.norm(raw, axis=1, keepdims=True)])
    ev = sigma if sigma is not None else (lambda pts: ground_energy(pts, model)[0])
    nd = len(dirs)
    offs = np.array([0.0, -rho, rho])
    xi = z[None, None, :] + offs[None, :, None] * dirs[:, None, :]
    tips = xi[:, :, None, :] + lams[None, None, :, None] * dirs[:, None, None, :]
    base = ev(xi.reshape(-1, 3)).reshape(nd, 3)
    tip = ev(tips.reshape(-1, 3)).reshape(nd, 3, lams.size)
    quot = (tip - base[:, :, None]) / lams[None, None, :]
    per_dir = quot.reshape(nd, -1).max(axis=1)
    margin = float(per_dir.min())
    # curvature scale from the lambda ladder at fixed xi: zero for piecewise
    # linear kinks (where the quotients are exact), Hessian-sized for smooth
    # sheets (where they carry an O(rho + lambda) bias)
    curv = float((quot.max(axis=2) - quot.min(axis=2)).max()) / float(lams.max() - lams.min())
    threshold = 3.0 * (rho + lams.max()) * curv + 1e-12
    return ClarkeVerdict(
        member=bool(margin >= -threshold),
        margin=margin,
        threshold=threshold,
        directions=nd,
    )


def gamma_pm(z, w, model: ModelSpec, solutions):
    """Upper and lower energy-variation bounds over a set of solutions at z.

    For each candidate field v the bracket is w . res, res the translation
    identity read in its limit form, pucci_serrin_residual(v, z, 0, model),
    whose boundary gates it shares; the result is (sup, inf).  w is one
    direction (3,), giving two floats, or a stack (m, 3), giving two (m,)
    arrays, one entry per direction.
    Constant phase changes leave the bracket invariant, so a phase orbit
    collapses both bounds to one number.
    """
    if not solutions:
        raise DiagnosticsError("gamma bounds need at least one solution at z")
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    vals = [w @ pucci_serrin_residual(v, z, 0.0, model)[0] for v in solutions]
    hi, lo = np.max(vals, axis=0), np.min(vals, axis=0)
    return (float(hi), float(lo)) if w.ndim == 1 else (hi, lo)


# ---------------------------------------------------------------------------
# concentration metrics

_RHO_LADDER = (4.0, 6.0, 8.0, 10.0)


def _value_at(u: Field3, x) -> float:
    """|u| at the point x by trilinear interpolation of the nodes, the point
    clamped into the box: map_coordinates(order=1, mode="nearest")."""
    grid = u.grid
    x = np.asarray(x, dtype=np.float64)
    lo = np.array([grid.axis(k)[0] for k in range(3)])
    n = np.array(grid.dims)
    c = np.clip((x - lo) / grid.spacing, 0.0, n - 1.0)
    i = np.minimum(np.floor(c).astype(np.int64), n - 2)
    t = c - i
    cube = u.values[i[0] : i[0] + 2, i[1] : i[1] + 2, i[2] : i[2] + 2]
    w = [np.array([1.0 - t[k], t[k]]) for k in range(3)]
    return float(abs(np.einsum("a,b,c,abc->", *w, cube)))


def concentration_metrics(family, z0, model: ModelSpec):
    """Pointwise and energetic concentration readings at z0, as the
    (columns, notes) the concentration study writes.

    family is a nonempty list of solutions sorted by strictly decreasing
    eps; any other raises DiagnosticsError before a member is read.
    columns maps each CSV column, in the order it is written, to one float
    per member:

      eps, spike1..3   the member's eps and spike location;
      scaled_energy    eps^-3 J(u);
      pointwise        |u(z0)| (_value_at);
      energy_gap       |scaled_energy - Sigma(z0)|;
      fixed_tail_rj    sup |u| outside the ball of radius eps_0 rho_j around
                       z0, eps_0 the largest eps and rho_j the jth of
                       (4, 6, 8, 10): what must decay at fixed radii for z0
                       to be a concentration point;
      fixed_floor_rj   the member's error estimate there: sup |e| outside
                       the same ball, e = (T + V)^-1 res
                       (Hamiltonian.solve_linear), res its strong-form
                       residual (pde_residual).

    A member solved to a finite tolerance resolves its tail only to within
    its error.  Where K f(|u|^2) is negligible, the far field, the true tail
    is (T + V)^-1 K f(|u|^2) u and the member is off it by exactly e; to
    first order that holds everywhere.  The error is smooth and flows in
    from inside the ball, so the local ratio |res| / V under-reads it, while
    e carries it.  So notes["fixed_tails_decreasing"] holds when, at every
    radius, no member's tail less its floor exceeds its predecessor's tail
    plus floor: tails apart only within their errors are solver noise.
    notes also holds target_z, sigma_at_target (Sigma(z0)),
    pointwise_bounded_away (least |u(z0)| above half the largest) and
    energy_gap_final.
    """
    eps_list = [s.eps for s in family]
    if not eps_list:
        raise DiagnosticsError("the family has no members")
    if not all(a > b for a, b in zip(eps_list, eps_list[1:])):
        raise DiagnosticsError("eps_list must be strictly decreasing")
    z0 = np.asarray(z0, dtype=np.float64)
    sig = float(ground_energy(z0, model)[0])
    radii = [eps_list[0] * rho for rho in _RHO_LADDER]
    rows = []
    for s in family:
        row = dict(eps=s.eps, spike1=s.spike[0], spike2=s.spike[1], spike3=s.spike[2],
                   scaled_energy=s.scaled_energy, pointwise=_value_at(s.u, z0),
                   energy_gap=abs(s.scaled_energy - sig))
        X = s.u.grid.meshgrid()
        dist = np.sqrt(sum((X[m] - z0[m]) ** 2 for m in range(3)))
        H = Hamiltonian.from_model(model, s.u.grid, s.eps)
        err = np.abs(H.solve_linear(pde_residual(s.u, model, s.eps, H)[0].values))
        for name, arr in (("fixed_tail", np.abs(s.u.values)), ("fixed_floor", err)):
            for j, rad in enumerate(radii, 1):
                out = arr[dist >= rad]
                row[f"{name}_r{j}"] = out.max() if out.size else 0.0
        rows.append(row)
    columns = {key: [float(r[key]) for r in rows] for key in rows[0]}
    pointwise = columns["pointwise"]
    ladder = [(f"fixed_tail_r{j}", f"fixed_floor_r{j}") for j in range(1, len(radii) + 1)]
    notes = {
        "target_z": z0.tolist(),
        "sigma_at_target": sig,
        "fixed_tails_decreasing": all(
            b[t] - b[f] <= a[t] + a[f] for a, b in zip(rows, rows[1:]) for t, f in ladder
        ),
        "pointwise_bounded_away": min(pointwise) > 0.5 * max(pointwise),
        "energy_gap_final": columns["energy_gap"][-1],
    }
    return columns, notes


# ---------------------------------------------------------------------------
# the aggregate report

def run_diagnostics(u: Field3, eps: float, model: ModelSpec, window=None) -> dict:
    """The standard report on one magnetic field, as the JSON object the CLI
    writes, with the denominators behind the ratios in notes: every value a
    number, the pucci_serrin_residual vector a numpy array and decay_window
    a pair, as they come from their producers; cli._write_json writes the
    numbers and the lists.

    The field is viewed around its spike (spike_location) by rescale, its
    own values on its own nodes and walls.  One phase split gives the
    imaginary fraction and the current J, and is freed; J serves both the
    current norm and the translation identity, whose term sizes' norm is
    pucci_serrin_terms_sum.  decay_fit sets the default window.  The caller
    adds both slacks, the Nehari and the diamagnetic, from its Hamiltonian:
    the solve reads them off its last iterate, verify off the stored field.
    """
    z0 = tuple(float(c) for c in spike_location(u))
    v = rescale(u, eps, z0)
    U, _, imag_fraction = phase_factor_split(v, z0, model)
    J, cnorm, cdenom = current_density(U)
    del U
    ps_vec, ps_rel, ps_terms = _translation_terms(v, J, z0, eps, model)
    fit = decay_fit(v, window)
    return {
        "current_density_norm": cnorm,
        "pucci_serrin_residual": ps_vec,
        "pucci_serrin_rel": ps_rel,
        "decay_rate_corrected": fit.corrected_rate,
        "decay_window": fit.window,
        "notes": {
            "pucci_serrin_terms_sum": ps_terms,
            "current_density_denominator": cdenom,
            "decay_points": float(fit.n_points),
            "phase_imag_fraction": imag_fraction,
        },
    }
