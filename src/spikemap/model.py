"""Problem data: coefficient expressions, nonlinearity, gauge changes.

Coefficients V, K and the three components of A are given as closed-form
expressions in x1, x2, x3.  A tiny recursive-descent parser builds an AST.
Each expression is compiled once into a straight-line numpy function, which
evaluates vectorized over arrays.  Derivatives come from the symbolic diff
alone: gradients, coefficient Jacobians and the A + grad chi of a gauge
change, chi a PotentialExpr like any coefficient, come from its trees.
ModelSpec.link_phases gives the single-hop phases of A on a grid;
fields.link_table walls them, and the stencil forms its longer hops from
them.

ModelSpec holds the coefficients and the nonlinearity; V and K are read
through their PotentialExpr methods, and only A, which stacks three
components, has its own ModelSpec accessors.  validate_assumptions is the
one gate: V > 0 and K > 0 on a fixed sample set.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Field3, Grid3


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


_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")

_COORDS = ("x1", "x2", "x3")  # the variable table of a coefficient
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
    def __init__(self, text, variables):
        self.text = text
        self.variables = variables
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
            if not math.isfinite(float(v)):
                raise ParseError(self.text, pos, f"number {v} overflows to inf")
            return Num(float(v))
        if k == "ident":
            self.eat("ident")
            if v in self.variables:
                return Coord(self.variables.index(v))
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


def _compile(roots):
    """One numpy function of the coordinate arrays xs returning each root's value.

    The source is straight-line, one assignment per distinct subtree, so a
    deep tree costs lines, not nesting.  Constants are bound as np.float64,
    so their arithmetic reports through np.errstate like the rest, and they
    are keyed by their bits, so that 0.0 and -0.0 stay apart.  ^ is the
    np.power ufunc, not **: on scalar operands ** calls libm pow, which can
    differ in the last bit from the array loop, and a point must evaluate to
    the same bits as its row in a batch.
    """
    env = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "log": np.log, "power": np.power}
    names, by_id, lines = {}, {}, []

    def emit(node):
        if id(node) not in by_id:
            if isinstance(node, Num):
                rhs = node.value.hex()
            elif isinstance(node, Coord):
                rhs = f"xs[{node.k}]"
            elif isinstance(node, Neg):
                rhs = f"-{emit(node.a)}"
            elif isinstance(node, Fun):
                rhs = f"{node.name}({emit(node.a)})"
            elif node.op == "^":
                rhs = f"power({emit(node.a)}, {emit(node.b)})"
            else:
                rhs = f"{emit(node.a)} {node.op} {emit(node.b)}"
            if rhs not in names:
                name = names[rhs] = f"t{len(names)}"
                if isinstance(node, Num):
                    env[name] = np.float64(node.value)
                else:
                    lines.append(f"    {name} = {rhs}\n")
            by_id[id(node)] = names[rhs]
        return by_id[id(node)]

    outs = ", ".join(emit(r) for r in roots)
    exec(compile(f"def _fn(xs):\n{''.join(lines)}    return ({outs},)\n", "<expression>", "exec"), env)
    return env["_fn"]


@dataclass
class PotentialExpr:
    """A parsed scalar coefficient, compiled once when it is built.

    value and on_grid run the compiled root; value_and_gradient runs one
    compiled function of the root and its partials diff(root, k).
    """

    text: str
    root: object
    _fn: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._fn = _compile([self.root])

    @cached_property
    def _fn_grad(self):
        return _compile([self.root] + [diff(self.root, k) for k in range(3)])

    def _xs(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (3,):
            raise ValueError(f"expected points with trailing dimension 3, got shape {x.shape}")
        # a point runs as a one-row stack, through the loops a stack's rows
        # take: np.power has exact paths for a scalar exponent of 2, 0.5 or
        # -1 that its array loop lacks, so 0.1 ^ x2 at x2 = 2 would differ
        rows = x.reshape(1, 3) if x.ndim == 1 else x
        return (rows[..., 0], rows[..., 1], rows[..., 2]), x.shape[:-1]

    def on_coords(self, xs, shape):
        """The value at coordinate arrays xs, broadcast to shape."""
        return _bcast(_checked(lambda: self._fn(xs)[0], self.text), shape)

    def value(self, x):
        return self.on_coords(*self._xs(x))

    def value_and_gradient(self, x):
        xs, shape = self._xs(x)
        v, *g = _checked(lambda: self._fn_grad(xs), self.text)
        grad = np.stack([_bcast(gi, shape) for gi in g], axis=-1)
        return _bcast(v, shape), grad

    def on_grid(self, grid: Grid3):
        return self.on_coords(grid.meshgrid(), tuple(grid.dims))


def _bcast(v, shape):
    arr = np.asarray(v, dtype=np.float64)
    if shape == ():
        return float(arr.reshape(-1)[0])
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr


def _checked(fn, text):
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return fn()
    except FloatingPointError as exc:
        raise EvalError(f"evaluation of {text!r} failed: {exc}") from None


def parse_potential(text: str, variables=_COORDS) -> PotentialExpr:
    """Parse text whose variables, in coordinate order, are named by variables."""
    return PotentialExpr(text, _Parser(text, variables).parse())


ZERO_EXPR = PotentialExpr("0", Num(0.0))


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
    """Potentials V, K, vector potential A, and the nonlinearity."""

    V: PotentialExpr
    K: PotentialExpr
    A: tuple
    nonlin: Nonlinearity

    def __post_init__(self):
        if len(self.A) != 3:
            raise ModelError("A must have exactly three components")

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

    def link_phases(self, grid: Grid3, eps: float) -> tuple:
        """Single-hop phase factors exp(-i/eps * int A . dl) along each grid
        edge, one complex array per axis, unit ones without a field.

        The line integral over one edge uses 5-point Gauss-Legendre, exact for
        polynomial components up to degree nine.  Hamiltonian.from_model, the
        one caller, holds these walled by fields.link_table, and
        fields.apply_link_kinetic forms the double and triple hops from them.
        """
        if not self.has_field:
            return tuple(np.ones(grid.dims, np.complex128) for _ in range(3))
        h = grid.spacing
        X = grid.meshgrid()
        per_axis = []
        for m in range(3):
            theta = np.zeros(grid.dims)
            for q, w in zip(_GL_NODES, _GL_WEIGHTS):
                theta += w * self.A[m].on_coords((*X[:m], X[m] + q * h, *X[m + 1:]), tuple(grid.dims))
            theta *= h / eps
            # exp(-i theta) in one complex buffer: theta goes before exp runs
            p = np.multiply(theta, -1j)
            del theta
            per_axis.append(np.exp(p, out=p))
        return tuple(per_axis)


def gauge_transform(u, model: ModelSpec, chi: PotentialExpr, eps: float):
    """Return (u * exp(i chi/eps), model with A replaced by A + grad chi),
    grad chi taken by diff."""
    u2 = Field3(u.grid, u.values * np.exp(1j * chi.on_grid(u.grid) / eps))
    new_A = []
    for m in range(3):
        d = diff(chi.root, m)
        if is_zero_expr(d):
            new_A.append(model.A[m])
        else:
            root = d if is_zero_expr(model.A[m].root) else Bin("+", model.A[m].root, d)
            new_A.append(PotentialExpr(expr_to_str(root), root))
    shifted = ModelSpec(model.V, model.K, tuple(new_A), model.nonlin)
    return u2, shifted


# ---------------------------------------------------------------------------
# the assumption gate

# The 26 lattice directions (a, b, c) / |(a, b, c)|, a, b, c in {-1, 0, 1}
# and not all zero, in np.ndindex order.
LATTICE_DIRECTIONS = np.array(
    [d for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)], dtype=np.float64
) - 1.0
LATTICE_DIRECTIONS /= np.linalg.norm(LATTICE_DIRECTIONS, axis=1)[:, None]

_BOX_RADIUS, _BOX_NODES = 8.0, 17
_RING_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def validate_assumptions(model: ModelSpec) -> None:
    """Refuse a model whose V or K is not positive on the sample set.

    The competing potentials must satisfy V > 0 and K > 0.  The sample set
    is the 17^3 box lattice over [-8, 8]^3 plus the 26 lattice directions at
    radii 1, 2, 4, ..., 64.  Raises ModelError; V is checked before K.
    """
    ax = np.linspace(-_BOX_RADIUS, _BOX_RADIUS, _BOX_NODES)
    box = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.concatenate([box] + [r * LATTICE_DIRECTIONS for r in _RING_RADII], axis=0)
    lows = {"V": np.min(model.V.value(pts)), "K": np.min(model.K.value(pts))}
    for name, low in lows.items():
        if low <= 0:
            raise ModelError(f"{name} is not positive on the sample set (min {low:.6g})")
