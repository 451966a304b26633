"""Problem data: coefficient expressions, nonlinearity, gauge changes.

Coefficients V, K and the three components of A are given as closed-form
expressions in x1, x2, x3.  A tiny recursive-descent parser builds an AST;
evaluation is vectorized over numpy arrays and carries forward-mode
gradients, and there is a symbolic derivative for building gauge-shifted
vector potentials and coefficient Jacobians exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid3, LinkPhases


class ModelError(Exception):
    pass


class ParseError(ModelError):
    def __init__(self, text, pos, message):
        self.pos = pos
        # an expression over 80 characters is quoted 30 characters each side of pos
        lo, hi = (max(0, pos - 30), pos + 30) if len(text) > 80 else (0, len(text))
        quoted = ("..." if lo else "") + repr(text[lo:hi]) + ("..." if hi < len(text) else "")
        super().__init__(f"parse error at position {pos} in {quoted}: {message}")


class EvalError(ModelError):
    pass


# ---------------------------------------------------------------------------
# expression AST

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    k: int  # 0, 1, 2 for x1, x2, x3


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    a: object
    b: object


@dataclass(frozen=True)
class Neg:
    a: object


@dataclass(frozen=True)
class Fun:
    name: str  # exp, sin, cos, and log (internal only, not parseable)
    a: object


_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")
_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")

_COORDS = {"x1": 0, "x2": 1, "x3": 2}
_FUNCS = ("exp", "sin", "cos")

# Deepest accepted nesting and expression tree: parsing and every tree walk
# recurse once per level, and a derivative tree is up to 3x as deep.
_MAX_DEPTH = 100


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _NUMBER.match(text, pos)
        if m:
            toks.append(("num", m.group(0), pos))
            pos = m.end()
            continue
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[pos:])
        if m:
            toks.append(("ident", m.group(0), pos))
            pos += m.end()
            continue
        if text[pos] in "-+*/^()":
            toks.append(("op", text[pos], pos))
            pos += 1
            continue
        raise ParseError(text, pos, f"unexpected character {text[pos]!r}")
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def eat(self, kind, value=None):
        k, v, pos = self.toks[self.i]
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(self.text, pos, f"expected {want}, found {v!r}")
        self.i += 1
        return v

    def parse(self):
        node = self.expr()
        k, v, pos = self.peek()
        if k != "end":
            raise ParseError(self.text, pos, f"trailing input starting at {v!r}")
        if _height(node) > _MAX_DEPTH:
            raise ParseError(self.text, 0, f"expression tree is deeper than {_MAX_DEPTH} levels")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.eat("op")
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.eat("op")
            node = Bin(op, node, self.unary())
        return node

    def unary(self):
        # every nesting of parentheses, calls, signs and powers passes here
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(self.text, self.peek()[2], f"nested deeper than {_MAX_DEPTH} levels")
        if self.peek()[:2] == ("op", "-"):
            self.eat("op")
            node = Neg(self.unary())
        elif self.peek()[:2] == ("op", "+"):
            self.eat("op")
            node = self.unary()
        else:
            node = self.factor()
        self.depth -= 1
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.eat("op")
            node = Bin("^", node, self.unary())  # right associative
        return node

    def atom(self):
        k, v, pos = self.peek()
        if k == "num":
            self.eat("num")
            return Num(float(v))
        if k == "ident":
            self.eat("ident")
            if v in _COORDS:
                return Coord(_COORDS[v])
            if v in _FUNCS:
                self.eat("op", "(")
                arg = self.expr()
                self.eat("op", ")")
                return Fun(v, arg)
            raise ParseError(self.text, pos, f"unknown identifier {v!r}")
        if (k, v) == ("op", "("):
            self.eat("op")
            node = self.expr()
            self.eat("op", ")")
            return node
        raise ParseError(self.text, pos, f"expected a value, found {v!r}")


def _height(root) -> int:
    """Levels of the expression tree, counted without recursion."""
    height, level = 0, [root]
    while level:
        height += 1
        level = [c for n in level for c in (getattr(n, "a", None), getattr(n, "b", None)) if c is not None]
    return height


def _ev(node, xs):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Coord):
        return xs[node.k]
    if isinstance(node, Neg):
        return -_ev(node.a, xs)
    if isinstance(node, Fun):
        a = _ev(node.a, xs)
        if node.name == "exp":
            return np.exp(a)
        if node.name == "sin":
            return np.sin(a)
        if node.name == "cos":
            return np.cos(a)
        return np.log(a)
    a = _ev(node.a, xs)
    b = _ev(node.b, xs)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a**b


def _ev_grad(node, xs):
    """Forward-mode value and three partials, all broadcast together."""
    if isinstance(node, Num):
        return node.value, [0.0, 0.0, 0.0]
    if isinstance(node, Coord):
        g = [0.0, 0.0, 0.0]
        g[node.k] = 1.0
        return xs[node.k], g
    if isinstance(node, Neg):
        v, g = _ev_grad(node.a, xs)
        return -v, [-gi for gi in g]
    if isinstance(node, Fun):
        v, g = _ev_grad(node.a, xs)
        if node.name == "exp":
            e = np.exp(v)
            return e, [e * gi for gi in g]
        if node.name == "sin":
            return np.sin(v), [np.cos(v) * gi for gi in g]
        if node.name == "cos":
            return np.cos(v), [-np.sin(v) * gi for gi in g]
        return np.log(v), [gi / v for gi in g]
    va, ga = _ev_grad(node.a, xs)
    vb, gb = _ev_grad(node.b, xs)
    if node.op == "+":
        return va + vb, [x + y for x, y in zip(ga, gb)]
    if node.op == "-":
        return va - vb, [x - y for x, y in zip(ga, gb)]
    if node.op == "*":
        return va * vb, [x * vb + va * y for x, y in zip(ga, gb)]
    if node.op == "/":
        return va / vb, [(x * vb - va * y) / (vb * vb) for x, y in zip(ga, gb)]
    if isinstance(node.b, Num):
        n = node.b.value
        v = va**n
        return v, [n * va ** (n - 1.0) * x for x in ga]
    v = va**vb
    return v, [v * (y * np.log(va) + vb * x / va) for x, y in zip(ga, gb)]


def diff(node, k):
    """Symbolic partial derivative with respect to coordinate k."""
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Coord):
        return Num(1.0 if node.k == k else 0.0)
    if isinstance(node, Neg):
        return Neg(diff(node.a, k))
    if isinstance(node, Fun):
        da = diff(node.a, k)
        if node.name == "exp":
            return Bin("*", Fun("exp", node.a), da)
        if node.name == "sin":
            return Bin("*", Fun("cos", node.a), da)
        if node.name == "cos":
            return Neg(Bin("*", Fun("sin", node.a), da))
        return Bin("/", da, node.a)
    da = diff(node.a, k)
    if node.op in "+-":
        return Bin(node.op, da, diff(node.b, k))
    db = diff(node.b, k)
    if node.op == "*":
        return Bin("+", Bin("*", da, node.b), Bin("*", node.a, db))
    if node.op == "/":
        num = Bin("-", Bin("*", da, node.b), Bin("*", node.a, db))
        return Bin("/", num, Bin("*", node.b, node.b))
    if isinstance(node.b, Num):
        pw = Bin("*", Num(node.b.value), Bin("^", node.a, Num(node.b.value - 1.0)))
        return Bin("*", pw, da)
    inner = Bin("+", Bin("*", db, Fun("log", node.a)), Bin("*", node.b, Bin("/", da, node.a)))
    return Bin("*", node, inner)


def subs_affine(node, z0, eps):
    """Substitute x -> z0 + eps * x throughout the tree."""
    if isinstance(node, Num):
        return node
    if isinstance(node, Coord):
        return Bin("+", Num(float(z0[node.k])), Bin("*", Num(float(eps)), node))
    if isinstance(node, Neg):
        return Neg(subs_affine(node.a, z0, eps))
    if isinstance(node, Fun):
        return Fun(node.name, subs_affine(node.a, z0, eps))
    return Bin(node.op, subs_affine(node.a, z0, eps), subs_affine(node.b, z0, eps))


def expr_to_str(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Coord):
        return f"x{node.k + 1}"
    if isinstance(node, Neg):
        return f"(-{expr_to_str(node.a)})"
    if isinstance(node, Fun):
        return f"{node.name}({expr_to_str(node.a)})"
    return f"({expr_to_str(node.a)}{node.op}{expr_to_str(node.b)})"


def is_zero_expr(node) -> bool:
    return isinstance(node, Num) and node.value == 0.0


@dataclass
class PotentialExpr:
    """A parsed scalar coefficient. Evaluate with .value / .value_and_gradient."""

    text: str
    root: object

    def _xs(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (3,):
            raise ValueError(f"expected points with trailing dimension 3, got shape {x.shape}")
        return (x[..., 0], x[..., 1], x[..., 2]), x.shape[:-1]

    def value(self, x):
        xs, shape = self._xs(x)
        out = _checked(lambda: _ev(self.root, xs), self.text)
        return _bcast(out, shape)

    def value_and_gradient(self, x):
        xs, shape = self._xs(x)
        v, g = _checked(lambda: _ev_grad(self.root, xs), self.text)
        grad = np.stack([_bcast(gi, shape) for gi in g], axis=-1)
        return _bcast(v, shape), grad

    def on_grid(self, grid: Grid3):
        xs = grid.meshgrid()
        out = _checked(lambda: _ev(self.root, xs), self.text)
        return _bcast(out, tuple(grid.dims))

    def derivative(self, k) -> "PotentialExpr":
        root = diff(self.root, k)
        return PotentialExpr(expr_to_str(root), root)


def _bcast(v, shape):
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy() if shape else np.float64(arr)
    if shape == ():
        return float(arr)
    return arr


def _checked(fn, text):
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return fn()
    except FloatingPointError as exc:
        raise EvalError(f"evaluation of {text!r} failed: {exc}") from None


def parse_potential(text: str) -> PotentialExpr:
    return PotentialExpr(text, _Parser(text).parse())


ZERO_EXPR = PotentialExpr("0", Num(0.0))


@dataclass
class GaugeFunction:
    """A scalar gauge function chi and its (symbolic) gradient."""

    chi: PotentialExpr
    grad: tuple = field(init=False)

    def __post_init__(self):
        self.grad = tuple(self.chi.derivative(k) for k in range(3))


def parse_gauge(text: str) -> GaugeFunction:
    return GaugeFunction(parse_potential(text))


# ---------------------------------------------------------------------------
# nonlinearity

@dataclass
class Nonlinearity:
    """f(s) acting through f(|u|^2) u, with primitive F(s) = (1/2) int_0^s f.

    The power family is f(s) = lam * s^((p-1)/2), so f(|u|^2) u = lam |u|^(p-1) u
    and F(s) = lam * s^((p+1)/2) / (p+1).  theta is the Ambrosetti-Rabinowitz
    exponent: 0 < theta F(s) <= f(s) s, with theta = p + 1 exact for powers.
    """

    kind: str
    lam: float = 0.0
    p: float = 0.0
    theta: float = 0.0
    f_fn: object = None
    F_fn: object = None

    @classmethod
    def power(cls, lam: float, p: float) -> "Nonlinearity":
        if not lam > 0:
            raise ModelError(f"power nonlinearity needs lam > 0, got {lam}")
        if not 1.0 < p < 5.0:
            raise ModelError(f"power nonlinearity needs 1 < p < 5, got {p}")
        return cls(kind="power", lam=float(lam), p=float(p), theta=float(p) + 1.0)

    @classmethod
    def custom(cls, f, F, theta: float) -> "Nonlinearity":
        if not theta > 2.0:
            raise ModelError(f"custom nonlinearity needs theta > 2, got {theta}")
        return cls(kind="custom", theta=float(theta), f_fn=f, F_fn=F)

    @property
    def is_power(self) -> bool:
        return self.kind == "power"

    def f(self, s):
        if self.is_power:
            return self.lam * np.asarray(s) ** ((self.p - 1.0) / 2.0)
        return self.f_fn(s)

    def F(self, s):
        if self.is_power:
            return self.lam * np.asarray(s) ** ((self.p + 1.0) / 2.0) / (self.p + 1.0)
        return self.F_fn(s)


# ---------------------------------------------------------------------------
# the model proper

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)
# mapped to [0, 1]
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass
class ModelSpec:
    """Potentials V, K, vector potential A, and the nonlinearity.

    V0 and K0 cache the sampled infimum of V and supremum of K; they are
    filled by validate_assumptions and used for box sizing and decay rates.
    """

    V: PotentialExpr
    K: PotentialExpr
    A: tuple
    nonlin: Nonlinearity
    V0: float | None = None
    K0: float | None = None

    def __post_init__(self):
        if len(self.A) != 3:
            raise ModelError("A must have exactly three components")

    # -- pointwise evaluation ------------------------------------------------

    def V_at(self, x):
        return self.V.value(x)

    def K_at(self, x):
        return self.K.value(x)

    def V_and_grad(self, x):
        return self.V.value_and_gradient(x)

    def K_and_grad(self, x):
        return self.K.value_and_gradient(x)

    def A_at(self, x):
        comps = [a.value(x) for a in self.A]
        return np.stack([np.asarray(c, dtype=np.float64) for c in comps], axis=-1)

    def A_jacobian(self, x):
        """J[..., m, k] = d A_m / d x_k."""
        rows = []
        for a in self.A:
            _, g = a.value_and_gradient(x)
            rows.append(g)
        return np.stack(rows, axis=-2)

    @property
    def has_field(self) -> bool:
        return not all(is_zero_expr(a.root) for a in self.A)

    # -- grid sampling ---------------------------------------------------------

    def V_on(self, grid: Grid3):
        return self.V.on_grid(grid)

    def K_on(self, grid: Grid3):
        return self.K.on_grid(grid)

    def link_phases(self, grid: Grid3, eps: float) -> LinkPhases:
        """Hop phase factors exp(-i/eps * int A . dl) along each grid edge.

        The line integral over one edge uses 5-point Gauss-Legendre, exact for
        polynomial components up to degree nine.  Double and triple hops are
        products of consecutive single hops, keeping the phased operator
        unitarily equivalent to the free one along each axis.
        """
        h = grid.spacing
        per_axis = []
        if not self.has_field:
            ones = np.ones(grid.dims, dtype=np.complex128)
            return LinkPhases(grid, eps, tuple((ones, ones, ones) for _ in range(3)))
        X = list(grid.meshgrid())
        for m in range(3):
            theta = np.zeros(grid.dims)
            for q, w in zip(_GL_NODES, _GL_WEIGHTS):
                xs = list(X)
                xs[m] = X[m] + q * h
                theta += w * _bcast(_checked(lambda: _ev(self.A[m].root, tuple(xs)), self.A[m].text), tuple(grid.dims))
            theta *= h / eps
            p1 = np.exp(-1j * theta)
            p2 = p1 * np.roll(p1, -1, axis=m)
            p3 = p2 * np.roll(p1, -2, axis=m)
            per_axis.append((p1, p2, p3))
        return LinkPhases(grid, eps, tuple(per_axis))


def gauge_transform(u, model: ModelSpec, chi: GaugeFunction, eps: float):
    """Return (u * exp(i chi/eps), model with A replaced by A + grad chi)."""
    from .fields import ComplexField3

    xs = u.grid.meshgrid()
    chi_vals = _bcast(_checked(lambda: _ev(chi.chi.root, xs), chi.chi.text), tuple(u.grid.dims))
    u2 = ComplexField3(u.grid, u.values * np.exp(1j * chi_vals / eps))
    new_A = []
    for m in range(3):
        if is_zero_expr(model.A[m].root):
            new_A.append(chi.grad[m])
        elif is_zero_expr(chi.grad[m].root):
            new_A.append(model.A[m])
        else:
            root = Bin("+", model.A[m].root, chi.grad[m].root)
            new_A.append(PotentialExpr(expr_to_str(root), root))
    shifted = ModelSpec(model.V, model.K, tuple(new_A), model.nonlin, model.V0, model.K0)
    return u2, shifted


# ---------------------------------------------------------------------------
# assumption checks

@dataclass
class SampleLattice:
    radius: float = 8.0
    n: int = 17
    ladder: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass
class ValidationReport:
    v_min: float
    k_min: float
    k_max: float
    argmin_v: np.ndarray
    theta_ok: bool
    growth: dict
    passed: bool
    notes: list


_DIRS26 = np.array(
    [d for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)], dtype=np.float64
) - 1.0
_DIRS26 /= np.linalg.norm(_DIRS26, axis=1)[:, None]


def validate_assumptions(model: ModelSpec, lattice: SampleLattice | None = None) -> ValidationReport:
    """Sample positivity of V and K, the theta bound, and coefficient growth.

    Fails hard (ModelError) when V or K dips to zero or below anywhere in the
    sample set; everything else is reported.  Fills model.V0 and model.K0.
    """
    lat = lattice or SampleLattice()
    ax = np.linspace(-lat.radius, lat.radius, lat.n)
    box = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    rings = [r * _DIRS26 for r in lat.ladder]
    pts = np.concatenate([box] + rings, axis=0)

    v = model.V_at(pts)
    k = model.K_at(pts)
    notes = []
    if np.min(v) <= 0:
        raise ModelError(f"V is not positive on the sample set (min {np.min(v):.6g})")
    if np.min(k) <= 0:
        raise ModelError(f"K is not positive on the sample set (min {np.min(k):.6g})")

    growth = {}
    for name in ("V", "K", "A"):
        rates = []
        for r, ring in zip(lat.ladder, rings):
            if name == "A":
                jac = model.A_jacobian(ring)
                mag = float(np.max(np.abs(jac))) if model.has_field else 0.0
            else:
                _, g = (model.V_and_grad if name == "V" else model.K_and_grad)(ring)
                mag = float(np.max(np.linalg.norm(g, axis=-1)))
            rates.append((float(r), mag))
        growth[name] = rates

    theta_ok = True
    s = np.logspace(-6, 2, 161)
    F = np.asarray(model.nonlin.F(s), dtype=np.float64)
    fs = np.asarray(model.nonlin.f(s), dtype=np.float64) * s
    tF = model.nonlin.theta * F
    if np.any(tF <= 0) or np.any(tF > fs * (1.0 + 1e-12) + 1e-300):
        theta_ok = False
        notes.append("theta condition 0 < theta F(s) <= f(s) s fails on the sample range")

    model.V0 = float(np.min(v))
    model.K0 = float(np.max(k))
    return ValidationReport(
        v_min=float(np.min(v)),
        k_min=float(np.min(k)),
        k_max=float(np.max(k)),
        argmin_v=pts[int(np.argmin(v))],
        theta_ok=theta_ok,
        growth=growth,
        passed=theta_ok,
        notes=notes,
    )
