"""Uniform cubic grids, discrete fields, stencils, the discrete Hamiltonian, quadrature.

Everything downstream (solvers, diagnostics, landscape scans) works on the
node-centered grids defined here.  Conventions: arrays are indexed [ix, iy, iz],
node coordinates are origin + (index - (n-1)/2) * spacing, and integrals are
plain node sums times the cell volume (spectrally accurate for smooth fields
that decay below rounding before the boundary).  Field3 is the one field
type, real or complex; a gradient is a (3,) + dims array, link phases are
one single-hop array per axis, and link_table alone forms the longer hops
and the wall.  scipy is loaded only by _nehari_scale's bracket, the Nehari
scale of a custom f, which imports brentq when it runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

SNAPSHOT_MAGIC = b"SPKF"
SNAPSHOT_VERSION = 1

# sixth-order second-derivative stencil weights (per axis, divided by h^2)
_C0, _C1, _C2, _C3 = -49.0 / 18.0, 1.5, -3.0 / 20.0, 1.0 / 90.0


class SolverError(Exception):
    """A discrete problem has no usable answer."""


class BoundaryMassWarning(UserWarning):
    """Raised when a field carries non-negligible weight on the box faces."""


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


def gradient(f) -> np.ndarray:
    """Componentwise central differences, one-sided at the box faces, as an
    array of shape (3,) + dims.

    Interior nodes use the second-order central formula; faces use the
    matching one-sided second-order formula (this is what keeps the
    operator exact on affine fields all the way to the boundary).
    """
    return np.stack(np.gradient(f.values, f.grid.spacing, edge_order=2))


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
    """The hop table apply_link_kinetic reads: per axis, the hops (p1, p2, p3)
    over 1, 2 and 3 edges, from the single hops p1s (one array per axis), or
    real unit hops for p1s None, so a real field stays real.  p1 is walled in
    place, 0 on the last plane of its axis; then p2 = p1 roll(p1, -1) and
    p3 = p2 roll(p1, -2) are 0 on every hop that leaves the box, and the
    phased operator stays unitarily equivalent to the free one per axis.
    """
    table = []
    for m in range(3):
        p1 = np.ones(grid.dims) if p1s is None else p1s[m]
        p1[(slice(None),) * m + (-1,)] = 0.0
        p2 = p1 * np.roll(p1, -1, axis=m)
        table.append((p1, p2, p2 * np.roll(p1, -2, axis=m)))
    return tuple(table)


def apply_link_kinetic(u: np.ndarray, links: tuple, eps: float, h: float) -> np.ndarray:
    """Sixth-order kinetic operator (the |D^eps|^2 part of the action).

    links is a link_table, 0 on every hop out of the box, so a hop across a
    face adds nothing: Dirichlet, with no wrapped copies.  Unit hops give
    eps^2 times minus the sixth-order Laplacian, and the result has the dtype
    of u times the table.  out starts as -3 C0 u; on the flattened fields each
    axis m and hop k, at offset o = k stride_m, update it in place through one
    scratch buffer: out[:-o] -= C_k (p_k[:-o] u[o:]) and out[o:] -= C_k
    (conj(p_k[:-o]) u[:-o]).  u is read in C order, so layout moves no bit.
    """
    u = np.ascontiguousarray(u)
    out = (-3.0 * _C0) * u.astype(np.result_type(u, links[0][0]), copy=False)
    uf, of, buf = u.reshape(-1), out.reshape(-1), np.empty(out.size, out.dtype)
    for m in range(3):
        for k, c in ((1, _C1), (2, _C2), (3, _C3)):
            o = k * u.strides[m] // u.itemsize
            p, b = links[m][k - 1].reshape(-1)[:-o], buf[:-o]
            np.multiply(p, uf[o:], out=b)
            of[:-o] -= np.multiply(b, c, out=b)
            np.multiply(np.conjugate(p, out=b), uf[:-o], out=b)
            of[o:] -= np.multiply(b, c, out=b)
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


class Hamiltonian:
    """The discrete problem T u + V u = K f(|u|^2) u on one grid, T the
    kinetic operator apply_link_kinetic.

    Built once per (grid, eps, coefficients) with the link_table of p1s: a
    model's link phases, complex, in from_model, None (free real hops) for
    frozen V, K.  V and K are node arrays or scalars.  Every 3D solve,
    energy and residual goes through its quadratic form
    Q(u) = <u, T u> + int V |u|^2, its pairing P(t) = int K f(t^2 |u|^2) |u|^2
    and the energy J(u) = Q(u) / 2 - int K F(|u|^2).  The residual is zero on
    the two-node rim, which carries the Dirichlet data, not the equation.
    vmax is sup V over the nodes; through stop_level it sets the residual
    level a solve stops at and verify gates on.  The descent's per-node step
    reads V itself.
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
        """The Hamiltonian of a complex field: its hop table is complex even
        where the model has no field, so no stencil product casts a real
        table to the field's dtype."""
        p1s = tuple(p.astype(np.complex128, copy=False) for p in model.link_phases(grid, eps))
        return cls(grid, eps, model.V.on_grid(grid), model.K.on_grid(grid), model.nonlin, p1s)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return apply_link_kinetic(u, self.links, self.eps, self.grid.spacing)

    def quad(self, u: np.ndarray, Tu: np.ndarray) -> float:
        """Q(u), given Tu = apply(u): real, positive for u != 0, with the
        kinetic part Re <u, Tu> summed in a fixed order by _re_dot."""
        return _re_dot(u, Tu) * self.vol + float((self.V * _abs2(u)).sum()) * self.vol

    def pairing(self, m2: np.ndarray, t: float) -> float:
        """P(t) for the field with |u|^2 = m2."""
        ft = np.asarray(self.nonlin.f(t * t * m2))
        return float((self.K * ft * m2).sum()) * self.vol

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

    def energy(self, u: np.ndarray) -> float:
        return 0.5 * self.quad(u, self.apply(u)) - self.potential(_abs2(u))

    def stop_level(self, tol: float, m2: np.ndarray) -> float:
        """tol * max(1, sup V) * rms(u) for the field with |u|^2 = m2: a
        residual rms at or below it counts as converged."""
        return tol * max(1.0, self.vmax) * math.sqrt(float(np.mean(m2)))

    def residual(self, u: np.ndarray, Tu: np.ndarray):
        """The rim-masked residual field, given Tu = apply(u), and its rms."""
        fu = np.asarray(self.nonlin.f(_abs2(u))) * u
        res = (Tu + self.V * u - self.K * fu) * self.mask
        return res, math.sqrt(float(np.mean(np.abs(res) ** 2)))

    def solve_linear(self, b: np.ndarray) -> np.ndarray:
        """x = (T + V)^-1 b on the nodes inside the rim, for b zero on the rim.

        Conjugate gradients on the rim-masked operator, Hermitian and positive
        definite, preconditioned by its diagonal -3 C0 eps^2 / h^2 + V, with
        every inner product summed by _re_dot in a fixed order.  Stops when
        the residual norm falls to 1e-10 ||b||, which takes about 50 steps at
        48^3 (eps / h about 3); SolverError if 1000 steps do not get there.
        """
        d = -3.0 * _C0 * self.eps**2 / self.grid.spacing**2 + self.V
        x = np.zeros_like(b)
        r = b.copy()
        z = r / d
        p = z.copy()
        rz = _re_dot(r, z)
        stop = 1e-10 * math.sqrt(_re_dot(b, b))
        for _ in range(1000):
            if math.sqrt(_re_dot(r, r)) <= stop:
                return x
            Ap = (self.apply(p) + self.V * p) * self.mask
            alpha = rz / _re_dot(p, Ap)
            x += alpha * p
            r -= alpha * Ap
            np.divide(r, d, out=z)
            rz, rz_old = _re_dot(r, z), rz
            p *= rz / rz_old
            p += z
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
        raw = np.frombuffer(fh.read(), dtype="<f8")
    npts = n1 * n2 * n3
    grid = Grid3((n1, n2, n3), spacing, (o1, o2, o3))
    if flag == 1:
        if raw.size != 2 * npts:
            raise ValueError(f"{path}: payload size {raw.size} != 2*{npts}")
        vals = (raw[0::2] + 1j * raw[1::2]).reshape(grid.dims, order="F")
        return Field3(grid, vals)
    if raw.size != npts:
        raise ValueError(f"{path}: payload size {raw.size} != {npts}")
    return Field3(grid, raw.reshape(grid.dims, order="F").copy())
