"""Uniform cubic grids, discrete fields, stencils, the discrete Hamiltonian, quadrature.

Everything downstream (solvers, diagnostics, landscape scans) works on the
node-centered grids defined here.  Conventions: arrays are indexed [ix, iy, iz],
node coordinates are origin + (index - (n-1)/2) * spacing, and integrals are
plain node sums times the cell volume (spectrally accurate for smooth fields
that decay below rounding before the boundary).  Field3 is the one field
type, real or complex; link phases are one single-hop array per axis,
link_table walls them, and apply_link_kinetic alone forms the longer hops,
per call and block by cache-sized block of the output; the Hamiltonian holds
them walled and reads its diamagnetic slack from them.
Hamiltonian.descend is the descent every 3D solve runs; it and
Hamiltonian.solve_linear keep from one step to the next only the fields
they read again.  scipy is loaded only by _nehari_scale's bracket, the
Nehari scale of a custom f.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = b"SPKF"
SNAPSHOT_VERSION = 1

# sixth-order second-derivative stencil weights (per axis, divided by h^2)
_C0, _C1, _C2, _C3 = -49.0 / 18.0, 1.5, -3.0 / 20.0, 1.0 / 90.0
# Gershgorin row bound of the kinetic operator in units of eps^2 / h^2,
# 3 (|C0| + 2 (|C1| + |C2| + |C3|)) = 18.133 rounded up; it holds with any
# field because every hop has modulus 1 or 0
STENCIL_ROW_BOUND = 18.14
_LINE_TRIALS = 30  # trials of the descent's line search before it takes its best
# flat nodes per block of apply_link_kinetic: of 4k, 8k, 16k and 32k the fastest
# at 32^3, 48^3 and 96^3 on a 2-core AVX-512 Xeon
_BLOCK = 16384


class SolverError(Exception):
    """A discrete problem has no usable answer."""


class BoundaryMassWarning(UserWarning):
    """Raised when a field carries non-negligible weight on the box faces."""


class ResolutionWarning(UserWarning):
    """The converged spike is about one node wide.

    Coarse grids admit lattice-pinned bound states whose discrete kinetic
    cost is underpriced by the stencil; they satisfy the discrete equation
    but do not approximate any continuum solution.  Refine the grid until
    the spike spans several nodes.
    """


class ConvergenceError(SolverError):
    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


@dataclass(frozen=True)
class Grid3:
    """Node-centered uniform grid on a rectangular box, origin at the center."""

    dims: tuple[int, int, int]
    spacing: float
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.dims) != 3 or any(int(n) < 8 for n in self.dims):
            raise ValueError(f"grid dims must be three values >= 8, got {self.dims}")
        if not (self.spacing > 0):
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    def axis(self, k: int) -> np.ndarray:
        n = self.dims[k]
        return self.origin[k] + (np.arange(n) - (n - 1) / 2.0) * self.spacing

    def meshgrid(self):
        """Coordinate arrays X1, X2, X3, each of shape dims."""
        return np.meshgrid(self.axis(0), self.axis(1), self.axis(2), indexing="ij")

    def half_extent(self, k: int = 0) -> float:
        return (self.dims[k] - 1) / 2.0 * self.spacing

    def matches(self, other: "Grid3") -> bool:
        """Equal dims, spacing and origin equal to rounding (np.isclose,
        np.allclose): a field on other can be read as a field on this grid."""
        return (tuple(self.dims) == tuple(other.dims) and bool(np.isclose(self.spacing, other.spacing))
                and bool(np.allclose(self.origin, other.origin)))


def make_grid(radius: float, n: int, origin=(0.0, 0.0, 0.0)) -> Grid3:
    """Cube grid with n nodes per axis spanning [-radius, radius] around origin."""
    if n < 8:
        raise ValueError("need at least 8 nodes per axis")
    return Grid3((n, n, n), 2.0 * radius / (n - 1), tuple(float(c) for c in origin))


@dataclass
class Field3:
    """Node values on a grid, real (float64) or complex (complex128), kept
    in the dtype they come in; any other dtype is refused."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.dtype not in (np.float64, np.complex128):
            raise ValueError(f"field values must be float64 or complex128, got {self.values.dtype}")
        if self.values.shape != tuple(self.grid.dims):
            raise ValueError(f"values shape {self.values.shape} does not match grid dims {tuple(self.grid.dims)}")


def boundary_fraction(weights: np.ndarray) -> float:
    """Share of the total of nonnegative node weights on the outermost node shell.

    Pass |u|^2 for a mass fraction, |u| for an L1 fraction; zero for an
    all-zero field.
    """
    total = float(weights.sum())
    if total == 0.0:
        return 0.0
    return (total - float(weights[1:-1, 1:-1, 1:-1].sum())) / total


def const_link_phases(grid: Grid3, a, eps: float) -> tuple:
    """Single-hop factors exp(-i a_m h / eps) for a spatially constant vector
    potential a (exact), one array per axis, as ModelSpec.link_phases gives."""
    return tuple(np.full(grid.dims, np.exp(-1j * a[m] * grid.spacing / eps)) for m in range(3))


def link_table(grid: Grid3, p1s: tuple | None) -> tuple:
    """The hops apply_link_kinetic reads: per axis, the single hop p1 over
    one edge, from the single hops p1s (one array per axis), or real unit
    hops for p1s None, so a real field stays real.  Each p1 is walled in
    place, 0 on the last plane of its axis, so every longer hop the stencil
    forms from it is 0 where it leaves the box, and the phased operator stays
    unitarily equivalent to the free one per axis.
    """
    walled = tuple(np.ones(grid.dims) if p1s is None else p1s[m] for m in range(3))
    for m, p1 in enumerate(walled):
        p1[(slice(None),) * m + (-1,)] = 0.0
    return walled


def _windows(spans):
    """The nonempty [lo, hi) of spans merged where they overlap, each with
    its offset in one buffer that holds them end to end."""
    merged = []
    for lo, hi in sorted(w for w in spans if w[1] > w[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out, off = [], 0
    for lo, hi in merged:
        out.append((lo, hi, off))
        off += hi - lo
    return out


def apply_link_kinetic(u: np.ndarray, links: tuple, eps: float, h: float) -> np.ndarray:
    """Sixth-order kinetic operator (the |D^eps|^2 part of the action).

    links is a link_table, one walled single hop p1 per axis.  On the
    flattened fields, with s the stride of axis m, the hops over 2 and 3
    edges are p2 = p1 p1[s:] and p3 = p2 p1[2 s:]; a walled p1 makes each 0
    on every hop out of the box, so a hop across a face adds nothing:
    Dirichlet, with no wrapped copies.  Unit hops give eps^2 times minus the
    sixth-order Laplacian, and the result has the dtype of u times the table.

    The output is filled in blocks of _BLOCK flat nodes, so each block's
    operands stay in cache.  A block starts as -3 C0 u; then each axis m and
    hop k, at offset o = k s, take the forward term, out(x) -= C_k (p_k(x)
    u(x + o)), then the backward one, out(x) -= C_k (conj(p_k(x - o))
    u(x - o)), for the nodes of the block where the hop stays on the flat
    index range.  p2, then p3 in place, are formed from p1 by the same
    products as on the whole field, on the spans those terms read, merged by
    _windows: while they overlap, one window from 3 s before the block to
    its end.  On axis 0 of a cube more than 90 nodes a side, where 2 s
    exceeds a block, the backward window stands apart from the forward one,
    and above 128, where s does, the two backward spans do too.  So every
    node's sum takes the same operations in the same order, (m, k), forward
    then backward, as an unblocked pass over the whole field, and the result
    has its bits.  The scratch buffer holds a block and the hop buffer its
    windows, not a field.  u is read in C order, so layout moves no bit.
    """
    u = np.ascontiguousarray(u)
    uf, n = u.reshape(-1), u.size
    out = np.empty(u.shape, np.result_type(u, links[0]))
    of, blk = out.reshape(-1), min(_BLOCK, n)
    strides = [u.strides[m] // u.itemsize for m in range(3)]
    buf = np.empty(blk, out.dtype)
    hop = np.empty(min(n, max(min(blk + 3 * s, 3 * blk) for s in strides)), links[0].dtype)
    for a in range(0, n, blk):
        b = min(a + blk, n)
        np.multiply(-3.0 * _C0, uf[a:b], out=of[a:b])
        for m, s in enumerate(strides):
            p1 = links[m].reshape(-1)
            # p2 where the forward terms of hops 2 and 3 and the backward one
            # of hop 2 read it, and under hop 3's backward p3
            wins = _windows(((a, min(b, n - 2 * s)), (max(a - 2 * s, 0), b - 2 * s), (max(a - 3 * s, 0), b - 3 * s)))

            def p_k(k, lo, hi):
                # p_k on [lo, hi): p1 itself, or the window of hop that holds it
                if k == 1:
                    return p1[lo:hi]
                w0, _, off = next(w for w in wins if w[0] <= lo and hi <= w[1])
                return hop[off + lo - w0:off + hi - w0]

            for k, c in ((1, _C1), (2, _C2), (3, _C3)):
                o = k * s
                if k > 1:
                    # p_k = p_(k-1) p1[(k-1) s:], formed in place in hop
                    for w0, w1, off in wins:
                        w1 = min(w1, n - o)
                        if w1 > w0:
                            np.multiply(p_k(k - 1, w0, w1), p1[w0 + o - s:w1 + o - s], out=hop[off:off + w1 - w0])
                j1 = min(b, n - o)
                if j1 > a:
                    t = buf[:j1 - a]
                    np.multiply(p_k(k, a, j1), uf[a + o:j1 + o], out=t)
                    of[a:j1] -= np.multiply(t, c, out=t)
                j0 = max(a, o)
                if b > j0:
                    t = buf[:b - j0]
                    np.multiply(np.conjugate(p_k(k, j0 - o, b - o), out=t), uf[j0 - o:b - o], out=t)
                    of[j0:b] -= np.multiply(t, c, out=t)
    out *= eps * eps / (h * h)
    return out


def _re_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b> over the nodes, real or complex, in any layout: numpy's
    single-thread einsum sums the float64 views of C-ordered copies in a fixed
    order, where np.vdot's threaded BLAS dot moves bits with the thread count."""
    x, y = (np.ascontiguousarray(w, np.result_type(a, b)).view(np.float64).ravel() for w in (a, b))
    return float(np.einsum("i,i->", x, y))


def _abs2(u: np.ndarray) -> np.ndarray:
    """|u|^2 node by node; a real field is squared without its zero imaginary part."""
    return u.real**2 + u.imag**2 if np.iscomplexobj(u) else u * u


def _nehari_scale(Q: float, pairing, nonlin) -> float:
    """The t > 0 with pairing(t) = int K f(t^2 u^2) u^2 equal to Q, the
    quadratic form of u: the closed form for powers, a bracketed root solve
    for any other f.
    """
    if Q <= 0:
        raise SolverError("quadratic part is not positive; field is degenerate")
    if nonlin.is_power:
        base = pairing(1.0)
        if base <= 0:
            raise SolverError("nonlinear pairing vanishes; field is degenerate")
        return (Q / base) ** (1.0 / (nonlin.p - 1.0))
    # pairing is nondecreasing in t, so g(t) = pairing(t) - Q crosses once
    t_lo = t_hi = 1.0
    for _ in range(200):
        if pairing(t_lo) < Q:
            break
        t_lo *= 0.5
    for _ in range(200):
        if pairing(t_hi) > Q:
            break
        t_hi *= 2.0
    if not (pairing(t_lo) < Q < pairing(t_hi)):
        raise SolverError("could not bracket the constraint scale")
    from scipy.optimize import brentq

    return float(brentq(lambda t: pairing(t) - Q, t_lo, t_hi, xtol=1e-300, rtol=1e-15))


def _warn_if_pinned(uv: np.ndarray) -> None:
    """Warn when |u| falls by more than 60% within one node of its peak."""
    m = np.abs(uv)
    idx = np.unravel_index(int(np.argmax(m)), m.shape)
    peak = m[idx]
    if peak == 0.0:
        return
    worst = 1.0
    for ax in range(3):
        lo = list(idx)
        best = 0.0
        for d in (-1, 1):
            j = idx[ax] + d
            if 0 <= j < m.shape[ax]:
                lo[ax] = j
                best = max(best, float(m[tuple(lo)]))
        worst = min(worst, best / peak)
    if worst < 0.4:
        warnings.warn(
            "converged spike is about one node wide; the grid cannot resolve "
            "it and the state may be lattice-pinned",
            ResolutionWarning,
            stacklevel=4,
        )


def _line_search(slope, g0, a):
    """A step a > 0 with |g| <= 0.1 |g0|, g0 = slope(0) < 0, by a safeguarded
    secant on the slope, and what slope returned there: (g, *rest).

    Until a trial's slope turns positive the secant extrapolates, held
    within [1.5 a, 4 a]; once [lo, hi] brackets the sign change it
    interpolates through the last two trials, or through the bracket's ends
    when that leaves it, and keeps a tenth of the bracket from either end.
    After _LINE_TRIALS trials it takes the last point of negative slope, or
    the last trial if there is none.
    """
    lo, hi, g_lo, g_hi = 0.0, math.inf, g0, 0.0
    a_prev, g_prev = 0.0, g0
    for _ in range(_LINE_TRIALS):
        out = slope(a)
        g = out[0]
        if not abs(g) > 0.1 * abs(g0):  # met, or non-finite: J reports that
            return a, out
        if g < 0.0:
            lo, g_lo, best = a, g, (a, out)
        else:
            hi, g_hi = a, g
        nxt = a - g * (a - a_prev) / (g - g_prev) if g != g_prev else math.nan
        a_prev, g_prev = a, g
        if hi == math.inf:
            a = min(max(nxt, 1.5 * a), 4.0 * a) if nxt > a else 4.0 * a
        else:
            if not lo < nxt < hi:
                nxt = lo - g_lo * (hi - lo) / (g_hi - g_lo)
            w = hi - lo
            a = min(max(nxt, lo + 0.1 * w), hi - 0.1 * w)
    return best if lo > 0.0 else (a_prev, out)


class Hamiltonian:
    """The discrete problem T u + V u = K f(|u|^2) u on one grid, T the
    kinetic operator apply_link_kinetic.

    Built once per (grid, eps, coefficients) with the link_table of p1s, the
    three walled single hops, one per axis: a model's link phases in
    from_model, None (free real hops) for frozen V, K.  V and K are node
    arrays or scalars.  Every 3D solve, energy and residual goes through its
    quadratic form Q(u) = <u, T u> + int V |u|^2, its node weight
    K f(|u|^2), its pairing
    P(t) = int K f(t^2 |u|^2) |u|^2 and the energy
    J(u) = Q(u) / 2 - int K F(|u|^2).  The residual is zero on the two-node
    rim, which carries the Dirichlet data, not the equation.  vmax is sup V
    over the nodes; through stop_level it sets the residual level a solve
    stops at and verify gates on.  descend's per-node preconditioner reads
    V itself.
    """

    def __init__(self, grid: Grid3, eps: float, V, K, nonlin, p1s: tuple | None):
        self.grid, self.eps, self.V, self.K = grid, eps, V, K
        self.nonlin, self.links = nonlin, link_table(grid, p1s)
        self.vol = grid.cell_volume
        self.vmax = float(np.max(V))
        self.mask = np.zeros(grid.dims)
        self.mask[2:-2, 2:-2, 2:-2] = 1.0

    @classmethod
    def from_model(cls, model, grid: Grid3, eps: float) -> "Hamiltonian":
        """The Hamiltonian of a complex field, whose single hops are the
        model's link phases: the one place a command builds them."""
        return cls(grid, eps, model.V.on_grid(grid), model.K.on_grid(grid), model.nonlin,
                   model.link_phases(grid, eps))

    def apply(self, u: np.ndarray) -> np.ndarray:
        return apply_link_kinetic(u, self.links, self.eps, self.grid.spacing)

    def quad(self, u: np.ndarray, Tu: np.ndarray) -> float:
        """Q(u), given Tu = apply(u): real, positive for u != 0, with the
        kinetic part Re <u, Tu> summed in a fixed order by _re_dot."""
        return _re_dot(u, Tu) * self.vol + float((self.V * _abs2(u)).sum()) * self.vol

    def weight(self, m2: np.ndarray) -> np.ndarray:
        """K f(m2) node by node: K f(|u|^2) u is the nonlinear term of the
        field with |u|^2 = m2."""
        return self.K * np.asarray(self.nonlin.f(m2))

    def pairing(self, m2: np.ndarray, t: float) -> float:
        """P(t) for the field with |u|^2 = m2."""
        return float((self.weight(t * t * m2) * m2).sum()) * self.vol

    def potential(self, m2: np.ndarray) -> float:
        """int K F(|u|^2) for the field with |u|^2 = m2."""
        return float((self.K * np.asarray(self.nonlin.F(m2))).sum()) * self.vol

    def project(self, u: np.ndarray):
        """(t u, t Tu, t^2 Q(u), |Q - P(t)| / Q) with t u on the Nehari
        manifold; T(t u) = t T(u) needs no second stencil application."""
        Tu = self.apply(u)
        Q = self.quad(u, Tu)
        m2 = _abs2(u)
        t = _nehari_scale(Q, lambda s: self.pairing(m2, s), self.nonlin)
        return t * u, t * Tu, Q * t * t, abs(Q - self.pairing(m2, t)) / Q

    def nehari_slack(self, u: np.ndarray) -> float:
        """|Q - P(1)| / Q of u as it stands: zero on the Nehari manifold."""
        Q = self.quad(u, self.apply(u))
        return abs(Q - self.pairing(_abs2(u), 1.0)) / Q if Q > 0 else float("inf")

    def diamagnetic_slack(self, u: np.ndarray) -> float:
        """Minimum of |D^eps u| - eps |grad |u|| over the nodes with a forward
        neighbour on every axis, where the walled hops equal the unwalled p1.

        Both sides take the stencil's forward hop per axis.  The hop is
        unimodular, so |p1 u(x+h) - u(x)| >= ||u(x+h)| - |u(x)|| node by node
        for any u: the slack is nonnegative, up to rounding, for every finite
        field, solution or not, and 0 for a real field without a vector
        potential.  So a gate on it (verify's at -1e-10) certifies nothing.
        Taken in slabs of x1-planes, about _BLOCK nodes, with the same
        operations per node as on the whole grid: the peak holds one slab's.
        """
        dims, lows = self.grid.dims, []
        rows = max(1, _BLOCK // ((dims[1] - 1) * (dims[2] - 1)))
        for i in range(0, dims[0] - 1, rows):
            sl = slice(i, min(i + rows, dims[0] - 1) + 1)  # and the plane past it
            us = u[sl]
            core = tuple(slice(0, d - 1) for d in us.shape)
            cov2 = np.zeros(tuple(d - 1 for d in us.shape))
            mod2 = np.zeros_like(cov2)
            mag = np.abs(us)
            for m in range(3):
                up = core[:m] + (slice(1, us.shape[m]),) + core[m + 1:]
                hop = self.links[m][sl][core] * us[up] - us[core]
                dm = mag[up] - mag[core]
                cov2 += np.abs(hop) ** 2
                mod2 += dm * dm
            lows.append(((self.eps / self.grid.spacing) * (np.sqrt(cov2) - np.sqrt(mod2))).min())
        return float(np.min(lows))

    def energy(self, u: np.ndarray) -> float:
        return 0.5 * self.quad(u, self.apply(u)) - self.potential(_abs2(u))

    def stop_level(self, tol: float, m2: np.ndarray) -> float:
        """tol * max(1, sup V) * rms(u) for the field with |u|^2 = m2: a
        residual rms at or below it counts as converged."""
        return tol * max(1.0, self.vmax) * math.sqrt(float(np.mean(m2)))

    def residual(self, u: np.ndarray, Tu: np.ndarray):
        """The rim-masked residual field and its rms, given Tu = apply(u), masked in place."""
        Tu *= self.mask
        return self._residual(u, Tu, self.weight(_abs2(u)), np.empty_like(Tu))

    def _residual(self, u: np.ndarray, mTu: np.ndarray, kf: np.ndarray, out: np.ndarray):
        """The residual mask ((V - kf) u + Tu) and its rms, summed by _re_dot,
        from mTu = mask Tu and kf = weight(|u|^2) in hand, into out, a buffer like mTu."""
        np.multiply((self.V - kf) * self.mask, u, out=out)
        np.add(mTu, out, out=out)
        return out, math.sqrt(_re_dot(out, out) / out.size)

    def descend(self, u, tol, max_iters, trace):
        """Preconditioned nonlinear conjugate gradients for the action on its
        Nehari manifold, from u (Polak-Ribiere with restarts; Antoine, Levitt
        & Tang, J. Comput. Phys. 343, 2017): the descent of every 3D solve.

        The preconditioner is the per-node step eta(x) = 1.8 / D(x),
        D(x) = STENCIL_ROW_BOUND eps^2 / h^2 + (1 + p) V(x), built once from
        V: D bounds row x of T + V, with the margin (1 + p) on V for the
        curvature of the nonlinear term, and sup V, reached only at the box
        corners, does not set the scale at the spike.  With z = eta res the
        direction is d = -z + beta d_old, beta = max(0, Re <z, res - res_old>
        / Re <z_old, res_old>), restarted to -z whenever Re <d, res> >= 0.

        The step follows the Nehari curve phi(a) = J(t(a) (u + a d)), t(a) the
        Nehari scale of u + a d (_nehari_scale, so a power and any other
        f take one rule).  With T d from the one stencil call of the iteration
        every trial is real node passes: Q(u + a d) = vol (q0 + 2 a q1 + a^2 q2)
        and |u + a d|^2 = |u|^2 + a (2 b + a c), b = Re(conj(u) d), c = |d|^2,
        and since t(a) puts u + a d on the manifold, phi'(a) = vol t^2 [(q1 +
        a q2) - sum K f(t^2 |u + a d|^2) (b + a c)] in closed form.
        _line_search stops at |phi'| <= 0.1 |phi'(0)|, a rule that keeps working
        where the energy's steps fall below float64 resolution.  Its first trial
        is the minimum of the quadratic model whose curvature per unit of q2 is
        the last search's secant one (a = 1 at the start, or after a search that
        met negative curvature), held to sqrt(q0 / q2), where u + a d has turned
        45 degrees from u in Q: far out on the curve t, and phi' with it, is
        small, and a search started there could stop past the minimum.  The
        accepted trial hands over t (u + a d), t (Tu + a T d) and its Q: one
        stencil application per iteration.

        Across iterations it holds u, Tu, d, the last residual, eta and
        |u|^2.  z = eta res lives until d is formed and lends its buffer to b
        and c, and T d, b and c live through one line search, whose trials
        return scalars alone, the Nehari slack among them; the accepted
        trial's updates, the next |u|^2 and residual reuse T d's buffer.  So no
        temporary of one iteration is alive at the next stencil call, and the
        traced peak is 8.5 complex fields above the seed at 32^3 and 48^3.

        Returns the first iterate whose residual rms is at or below
        stop_level, tol * max(1, sup V) * rms(u), and warns if that iterate
        is lattice-pinned (_warn_if_pinned), whichever solve ran the descent.
        Appends {iter, energy, residual, nehari_slack} to trace per iteration;
        ConvergenceError carries it on divergence or when max_iters runs out.
        """
        nonlin, vol = self.nonlin, self.vol
        h, eps = self.grid.spacing, self.eps
        p_curv = nonlin.p if nonlin.is_power else 3.0
        eta = 1.8 / (STENCIL_ROW_BOUND * eps * eps / (h * h) + (1.0 + p_curv) * self.V)
        # a diverging iterate overflows on its way to a non-finite J, which is
        # the one report of it, so numpy's overflow and invalid warnings are off
        with np.errstate(over="ignore", invalid="ignore"):
            u = u * self.mask
            u, Tu, Q, slack = self.project(u)
            # u and d are zero on the rim, so only mask Tu is ever read
            Tu *= self.mask
            d = np.zeros_like(Tu)

            def re_conj(x, y, w):
                # Re(conj(x) y) by one complex product in the scratch w,
                # faster than _abs2's strided parts
                return np.multiply(np.conjugate(x, out=w), y, out=w).real.copy()

            m2 = re_conj(u, u, np.empty_like(u))
            res_old, zr_old, curv, rn0, Td = None, 0.0, 0.0, None, np.empty_like(Tu)
            for it in range(max_iters):
                res, rn = self._residual(u, Tu, self.weight(m2), Td)
                del Td
                J = 0.5 * Q - self.potential(m2)
                trace.append({"iter": it, "energy": J, "residual": rn, "nehari_slack": slack})
                if not math.isfinite(J):
                    raise ConvergenceError("magnetic descent diverged to a non-finite energy", trace)
                if rn0 is None:
                    rn0 = rn
                elif rn > 1e3 * rn0:
                    raise ConvergenceError("magnetic descent residual grew out of control", trace)
                if rn <= self.stop_level(tol, m2):
                    _warn_if_pinned(u)
                    return u
                z = np.multiply(res, eta)
                zr = _re_dot(z, res)
                beta = max(0.0, (zr - _re_dot(z, res_old)) / zr_old) if zr_old > 0.0 else 0.0
                d *= beta
                d -= z
                g0 = _re_dot(d, res)
                if g0 >= 0.0:
                    np.negative(z, out=d)
                    g0 = -zr
                res_old, zr_old = res, zr
                b, c = re_conj(u, d, z), re_conj(d, d, z)
                del z
                Td = self.apply(d)
                Td *= self.mask
                q0 = Q / vol
                q1 = _re_dot(d, Tu) + float((self.V * b).sum())
                q2 = _re_dot(d, Td) + float((self.V * c).sum())

                def slope(a):
                    m2a = c * a
                    m2a += 2.0 * b
                    m2a *= a
                    m2a += m2
                    Qa = vol * (q0 + a * (2.0 * q1 + a * q2))
                    t = _nehari_scale(Qa, lambda s: self.pairing(m2a, s), nonlin)
                    kfa = self.weight(t * t * m2a)
                    g = vol * t * t * (q1 + a * q2 - _re_dot(kfa, b) - a * _re_dot(kfa, c))
                    return g, t, Qa, abs(Qa - vol * _re_dot(kfa, m2a)) / Qa

                a0 = -g0 / (curv * q2) if curv > 0.0 else 1.0
                step, (g, t, Qa, slack) = _line_search(slope, vol * g0, min(a0, math.sqrt(q0 / q2)))
                del b, c
                curv = (g / vol - g0) / (step * q2)
                Tu += np.multiply(Td, step, out=Td)
                Tu *= t
                u += np.multiply(d, step, out=Td)
                u *= t
                Q = Qa * t * t
                # |u|^2 afresh: carried as t^2 m2a its rounding doubled the drift
                # of the carried residual from a fresh one
                m2 = re_conj(u, u, Td)
        raise ConvergenceError(f"magnetic descent did not reach tol={tol} in {max_iters} iterations", trace)

    def solve_linear(self, b: np.ndarray) -> np.ndarray:
        """x = (T + V)^-1 b on the nodes inside the rim, for b zero on the rim.

        Conjugate gradients on the rim-masked operator, Hermitian and positive
        definite, preconditioned by its diagonal -3 C0 eps^2 / h^2 + V, with
        every inner product summed by _re_dot in a fixed order.  Stops when
        the residual norm falls to 1e-10 ||b||, which takes about 50 steps at
        48^3 (eps / h about 3); SolverError if 1000 steps do not get there.
        Each step updates x, r and p in place, through the stencil's output
        alone, which it drops before the next step.
        """
        d = -3.0 * _C0 * self.eps**2 / self.grid.spacing**2 + self.V
        x = np.zeros_like(b)
        r = b.copy()
        p = r / d
        rz = _re_dot(r, p)
        stop = 1e-10 * math.sqrt(_re_dot(b, b))
        for _ in range(1000):
            if math.sqrt(_re_dot(r, r)) <= stop:
                return x
            # A p, then alpha A p, alpha p and the preconditioned residual z
            # in turn in the stencil's output w
            w = self.apply(p)
            w += self.V * p
            w *= self.mask
            alpha = rz / _re_dot(p, w)
            r -= np.multiply(alpha, w, out=w)
            x += np.multiply(alpha, p, out=w)
            z = np.divide(r, d, out=w)
            rz, rz_old = _re_dot(r, z), rz
            p *= rz / rz_old
            p += z
            del w, z
        raise SolverError("the linear solve did not reach 1e-10 ||b|| in 1000 steps")


def write_snapshot(path, f) -> None:
    """Binary field snapshot.

    Layout, all little-endian: magic 'SPKF', uint32 version, uint32 flag
    (0 real, 1 complex), three uint32 dims, float64 spacing, three float64
    origin components, then the nodes as float64 in x-fastest order, complex
    values interleaved (re, im).
    """
    is_complex = np.iscomplexobj(f.values)
    head = struct.pack(
        "<4sII3Id3d",
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        1 if is_complex else 0,
        *[int(n) for n in f.grid.dims],
        f.grid.spacing,
        *[float(c) for c in f.grid.origin],
    )
    flat = f.values.ravel(order="F")
    payload = (flat.view(np.float64) if is_complex else flat).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload.tobytes())


def read_snapshot(path):
    head_size = struct.calcsize("<4sII3Id3d")
    with open(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValueError(f"{path}: truncated snapshot header")
        magic, version, flag, n1, n2, n3, spacing, o1, o2, o3 = struct.unpack("<4sII3Id3d", head)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if flag not in (0, 1):
            raise ValueError(f"{path}: unknown field flag {flag} (0 real, 1 complex)")
        payload = fh.read()
    npts = n1 * n2 * n3
    grid = Grid3((n1, n2, n3), spacing, (o1, o2, o3))
    words = 2 * npts if flag == 1 else npts
    if len(payload) != 8 * words:
        raise ValueError(f"{path}: payload size {len(payload) // 8} != {words}")
    # a view of the interleaved (re, im) pairs keeps every bit, -0.0 included;
    # the copy puts either dtype in C order
    vals = np.frombuffer(payload, dtype="<c16" if flag == 1 else "<f8")
    vals = vals.reshape(grid.dims, order="F").copy()
    # the checks compare with < and >, which a nan never fails
    bad = np.argwhere(~np.isfinite(vals))
    if bad.size:
        first = tuple(bad[0].tolist())
        raise ValueError(f"{path}: {len(bad)} non-finite node values, the first {vals[first]} at node {first}")
    return Field3(grid, vals)
