import ast
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spikemap.fields import Field3, Hamiltonian, make_grid
from spikemap.model import (
    EvalError,
    ModelError,
    ModelSpec,
    Nonlinearity,
    ParseError,
    PotentialExpr,
    ZERO_EXPR,
    diff,
    expr_to_str,
    gauge_transform,
    parse_potential,
    validate_assumptions,
)


def pt(*c):
    return np.array(c, dtype=np.float64)


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("1 + 2*3", (0, 0, 0), 7.0),
        ("x1 - x2 - x3", (5, 2, 1), 2.0),
        ("-x1^2", (3, 0, 0), -9.0),  # unary minus binds looser than the power
        ("2^-2", (0, 0, 0), 0.25),
        ("x1^3^2", (2, 0, 0), 512.0),  # right associative: 2^(3^2)
        ("(1+x1)*(1-x1)", (0.5, 0, 0), 0.75),
        ("exp(0*x1)", (9, 9, 9), 1.0),
        ("sin(x2)^2 + cos(x2)^2", (0, 0.7, 0), 1.0),
        ("6/3/2", (0, 0, 0), 1.0),  # left associative division
    ],
)
def test_parser_values(text, x, expected):
    assert parse_potential(text).value(pt(*x)) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("bad", [
    "x1 + * x2", "foo(x1)", "x4", "1 2", "(x1", "", "x1 +",
    # deeper than the nesting limit: recursion in the parser, then in evaluation
    pytest.param("(" * 400 + "x1" + ")" * 400, id="400-parentheses"),
    pytest.param("+".join(["1"] * 3000), id="3000-terms"),
])
def test_parser_rejects(bad):
    with pytest.raises(ParseError):
        parse_potential(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_potential("x1 + * x2")
    assert exc.value.pos == 5


@pytest.mark.parametrize("bad, pos", [
    pytest.param("+".join(["1"] * 3000), 0, id="3000-terms"),
    pytest.param("+".join(["x1"] * 40) + " + * " + "+".join(["x2"] * 40), 122, id="mid-error"),
])
def test_parse_error_of_a_long_expression_stays_short(bad, pos):
    # a long expression is quoted as a window around the position, not whole
    with pytest.raises(ParseError) as exc:
        parse_potential(bad)
    assert exc.value.pos == pos
    msg = str(exc.value)
    assert len(msg) < 200
    assert f"position {pos}" in msg and "..." in msg


def test_eval_is_vectorized():
    V = parse_potential("1 + x1^2 + x2^2 + x3^2")
    xs = np.stack(np.meshgrid(*[np.linspace(-1, 1, 4)] * 3, indexing="ij"), axis=-1)
    vals = V.value(xs)
    assert vals.shape == (4, 4, 4)
    assert vals[0, 0, 0] == pytest.approx(4.0)


def test_eval_error_on_division_blowup():
    V = parse_potential("1/x1")
    with pytest.raises(EvalError):
        V.value(pt(0.0, 1.0, 1.0))


def test_eval_error_on_overflow():
    V = parse_potential("exp(x1)")
    with pytest.raises(EvalError):
        V.value(pt(1e6, 0.0, 0.0))


def _texts(depth):
    """Expression texts of the grammar, nested at most depth levels."""
    leaf = st.one_of(
        st.sampled_from(["x1", "x2", "x3"]),
        st.builds("{}.{}".format, st.integers(0, 3), st.integers(0, 9)),
    )
    if depth == 0:
        return leaf
    sub = _texts(depth - 1)
    return st.one_of(
        leaf,
        st.builds("{} {} {}".format, sub, st.sampled_from("+-*/^"), sub),
        st.builds("-{}".format, sub),
        st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]), sub),
        st.builds("({})".format, sub),
    )


class _PowerCall(ast.NodeTransformer):
    """a ** b -> power(a, b), after Python's parser has grouped the operands."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            return ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], [])
        return node


def _python_value(text, x):
    """The oracle: Python's own parser on the same text, ^ read as **, with
    float64 literals and numpy functions; underflow is no error on either side.
    Points are one-dimensional arrays, so every operation on them takes
    numpy's array loops, as compiled code does on one point and on many.
    Literals are np.float64 scalars and ** is the np.power ufunc, as compiled
    code binds and calls them: np.power takes exact paths for a scalar
    exponent of 2, 0.5 or -1, so a one-element array exponent would differ
    in the last bit (exp(3.7) ^ 0.5)."""
    src = re.sub(r"\d+\.\d+", lambda m: f"F({m.group()})", text).replace("^", "**")
    tree = ast.fix_missing_locations(_PowerCall().visit(ast.parse(src, mode="eval")))
    rows = np.reshape(x, (-1, 3))
    env = {"F": np.float64, "power": np.power, "exp": np.exp, "sin": np.sin, "cos": np.cos,
           "x1": rows[:, 0], "x2": rows[:, 1], "x3": rows[:, 2]}
    with np.errstate(all="raise", under="ignore"):
        value = eval(compile(tree, "<oracle>", "eval"), env)
        return np.broadcast_to(value, rows.shape[:-1]).reshape(x.shape[:-1])


def _bits(v, shape):
    return np.broadcast_to(np.asarray(v, dtype=np.float64), shape).tobytes()


ARRAY_POINTS = np.random.default_rng(1).uniform(-3.0, 3.0, size=(5, 3))


@given(text=_texts(6), x=st.tuples(*[st.floats(-3, 3)] * 3))
@example(text="1.0 / 0.0", x=(0.0, 0.0, 0.0))  # errors of constant subtrees
@example(text="2.0 ^ 999.0 - x1", x=(0.0, 0.0, 0.0))
@example(text="(-1.5) ^ 0.5 + x1", x=(0.0, 0.0, 0.0))
@example(text="(x1 + 1.0) ^ 2.5", x=(1.5, 0.0, 0.0))
@example(text="exp(3.7) ^ 0.5", x=(0.0, 0.0, 0.0))  # a scalar exponent of 0.5
@settings(max_examples=300, deadline=None)
def test_compiled_value_matches_python_parser(text, x):
    expr = parse_potential(text)
    for pts in (pt(*x), ARRAY_POINTS):
        shape = pts.shape[:-1]
        try:
            want = _python_value(text, pts)
        except FloatingPointError:
            with pytest.raises(EvalError):
                expr.value(pts)
            continue
        got = expr.value(pts)
        assert _bits(got, shape) == _bits(want, shape)
        try:
            v, _ = expr.value_and_gradient(pts)
        except EvalError:  # a partial can fail where the value does not
            continue
        assert _bits(v, shape) == _bits(got, shape)


def test_bench_K_gradient_at_each_point_equals_its_row_in_a_batch():
    # on one point the operands of ^ are numpy scalars, on a stack arrays;
    # the bits agree only if both take numpy's power loop
    K = parse_potential("1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))")
    z = np.random.default_rng(0).uniform(-3.0, 3.0, size=(3000, 3))
    v, g = K.value_and_gradient(z)
    singles = [K.value_and_gradient(zi) for zi in z]
    assert np.array([vi for vi, _ in singles]).tobytes() == v.tobytes()
    assert np.array([gi for _, gi in singles]).tobytes() == g.tobytes()


@given(text=_texts(5), rows=st.lists(st.tuples(*[st.floats(-3, 3)] * 3), min_size=1, max_size=6))
@example(text="(x1 + 1.0) ^ 2.5", rows=[(1.5, 0.0, 0.0)])  # scalar ** is 1 ulp off here
@example(text="0.1 ^ x2", rows=[(0.0, 2.0, 0.0)])  # np.power squares a scalar exponent of 2
@settings(max_examples=200, deadline=None)
def test_a_point_evaluates_to_its_row_of_a_stack(text, rows):
    expr = parse_potential(text)
    stack = np.array(rows)
    singles = []
    for x in stack:
        try:
            singles.append(expr.value_and_gradient(x))
        except EvalError:
            singles.append(None)
    try:
        v, g = expr.value_and_gradient(stack)
    except EvalError:
        assert any(s is None for s in singles)
        return
    for i, single in enumerate(singles):
        assert single is not None
        assert np.float64(single[0]).tobytes() == v[i].tobytes()
        assert single[1].tobytes() == g[i].tobytes()


@given(text=st.one_of(st.text(max_size=40), st.text("x0123.eE+-*/^() expsincolg_", max_size=40)))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_parses_or_raises_a_model_error(text):
    try:
        expr = parse_potential(text)
    except ModelError:
        return
    assert isinstance(expr, PotentialExpr)


@pytest.mark.parametrize("text", [
    pytest.param("sin(" * 98 + "x1" + ")" * 98, id="98-nested-sin"),
    pytest.param("(1+x1/" * 48 + "(1+x1)" + ")" * 48, id="48-level-fraction"),
])
def test_deepest_accepted_expressions_compile(text):
    # their derivative trees are about three times as deep as the text
    v, g = parse_potential(text).value_and_gradient(pt(0.3, 0.2, 0.1))
    assert np.isfinite(v) and np.all(np.isfinite(g))


EXPRS = [
    "1 + x1^2 + 2*x2^2 + 0.5*x3^2",
    "exp(-(x1^2 + x2^2 + x3^2))",
    "sin(x1)*cos(x2) + x3",
    "(1 + x1^2)^2 / (2 + sin(x3))",
]


@given(
    i=st.integers(0, len(EXPRS) - 1),
    x1=st.floats(-2, 2),
    x2=st.floats(-2, 2),
    x3=st.floats(-2, 2),
)
@settings(max_examples=60, deadline=None)
def test_forward_gradient_matches_symbolic(i, x1, x2, x3):
    V = parse_potential(EXPRS[i])
    x = pt(x1, x2, x3)
    _, grad = V.value_and_gradient(x)
    for k in range(3):
        d = diff(V.root, k)
        assert grad[k] == pytest.approx(PotentialExpr(expr_to_str(d), d).value(x), rel=1e-10, abs=1e-10)


def test_gradient_matches_finite_differences():
    V = parse_potential("exp(-(x1^2 + 2*x2^2)) + x3*x1")
    x = pt(0.3, -0.4, 0.9)
    _, grad = V.value_and_gradient(x)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (V.value(x + e) - V.value(x - e)) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=5e-9, abs=5e-9)


def test_nonlinearity_power_validation():
    with pytest.raises(ModelError):
        Nonlinearity.power(0.0, 3.0)
    with pytest.raises(ModelError):
        Nonlinearity.power(1.0, 1.0)
    with pytest.raises(ModelError):
        Nonlinearity.power(1.0, 5.0)
    nl = Nonlinearity.power(2.0, 3.0)
    assert nl.theta == 4.0
    assert nl.is_power


def test_nonlinearity_custom_needs_theta():
    with pytest.raises(ModelError):
        Nonlinearity.custom(lambda s: s, lambda s: s * s / 4, theta=2.0)


def test_power_F_is_half_primitive_of_f():
    nl = Nonlinearity.power(1.3, 2.7)
    s = np.linspace(0.1, 4.0, 7)
    h = 1e-6
    dF = (np.asarray(nl.F(s + h)) - np.asarray(nl.F(s - h))) / (2 * h)
    assert np.allclose(dF, 0.5 * np.asarray(nl.f(s)), rtol=1e-8)


def make_model(Vtxt="1 + x1^2 + x2^2 + x3^2", Ktxt="1", A=None, p=3.0):
    Ae = tuple(parse_potential(t) for t in A) if A else (ZERO_EXPR,) * 3
    return ModelSpec(
        V=parse_potential(Vtxt),
        K=parse_potential(Ktxt),
        A=Ae,
        nonlin=Nonlinearity.power(1.0, p),
    )


def test_modelspec_needs_three_A_components():
    with pytest.raises(ModelError):
        ModelSpec(parse_potential("1"), parse_potential("1"), (ZERO_EXPR,) * 2,
                  Nonlinearity.power(1.0, 3.0))


def test_A_jacobian_and_divergence():
    # A = (1/2) B x x for B = e3, plus a nonlinear twist on the third slot
    model = make_model(A=("-0.5*x2", "0.5*x1", "x1*x2*x3"))
    x = pt(0.7, -0.2, 0.4)
    jac = model.A_jacobian(x)
    h = 1e-6
    for m in range(3):
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (model.A_at(x + e)[m] - model.A_at(x - e)[m]) / (2 * h)
            assert jac[m, k] == pytest.approx(fd, rel=1e-7, abs=1e-8)
    assert model.has_field


def test_link_phases_trivial_without_field():
    model = make_model()
    g = make_grid(radius=2.0, n=12)
    p1s = model.link_phases(g, 0.5)
    # one complex unit array per axis, distinct because link_table walls each
    # in place; complex, so the Hamiltonian holds them as they come
    assert len(p1s) == 3 and len({id(p) for p in p1s}) == 3
    for p in p1s:
        assert p.dtype == np.complex128 and np.all(p == 1.0)


def test_gauge_transform_preserves_h_norm():
    # the magnetic energy is gauge invariant, and the link discretization
    # keeps that exact for polynomial gauge functions
    g = make_grid(radius=3.0, n=24)
    model = make_model(Vtxt="1 + 0.2*x1^2 + x2^2 + 0.5*x3^2",
                       A=("-0.4*x2", "0.4*x1", "0.1"))
    eps = 0.5
    X1, X2, X3 = g.meshgrid()
    u = Field3(g, np.exp(-(X1**2 + X2**2 + X3**2)) * np.exp(1j * X1))
    chi = parse_potential("0.3*x1*x2 - 0.2*x3^2 + x1")
    u2, model2 = gauge_transform(u, model, chi, eps)
    H1 = Hamiltonian.from_model(model, g, eps)
    H2 = Hamiltonian.from_model(model2, g, eps)
    n1 = H1.quad(u.values, H1.apply(u.values))
    n2 = H2.quad(u2.values, H2.apply(u2.values))
    assert abs(n2 - n1) <= 1e-12 * abs(n1)
    assert np.allclose(np.abs(u2.values), np.abs(u.values), rtol=1e-13)


def test_gauge_gradient_is_symbolic():
    # without a field the shifted A is grad chi alone, taken by diff
    g = make_grid(radius=1.0, n=8)
    u = Field3(g, np.ones(g.dims, dtype=np.complex128))
    _, shifted = gauge_transform(u, make_model(), parse_potential("x1*x2^2 + 3*x3"), 0.5)
    x = pt(0.5, 2.0, -1.0)
    assert shifted.A[0].value(x) == pytest.approx(4.0)
    assert shifted.A[1].value(x) == pytest.approx(2.0)
    assert shifted.A[2].value(x) == pytest.approx(3.0)


def test_validate_passes_the_harmonic_model_and_returns_none():
    assert validate_assumptions(make_model()) is None


def test_validate_rejects_nonpositive_V():
    model = make_model(Vtxt="x1^2")  # vanishes at the origin
    with pytest.raises(ModelError, match=re.escape("V is not positive on the sample set (min 0)")):
        validate_assumptions(model)


# Positive on the whole box [-8, 8]^3 (the least value is 1 - 64/500 = 0.872),
# negative from the r = 32 ring on; the least sample, 1 - 64^2/500, lies at
# r = 64 on the axis.
@pytest.mark.parametrize("Vtxt, Ktxt, name", [
    ("1 - x1^2/500", "1", "V"),
    ("1 + x1^2", "1 - x2^2/500", "K"),
    ("1 - x1^2/500", "1 - x2^2/500", "V"),  # V is checked first
])
def test_validate_rejects_a_coefficient_negative_only_on_the_rings(Vtxt, Ktxt, name):
    message = f"{name} is not positive on the sample set (min -7.192)"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        validate_assumptions(make_model(Vtxt=Vtxt, Ktxt=Ktxt))


def test_validate_passes_a_coefficient_near_the_float_range_without_warning():
    # V at r = 64 is about e^655, finite; the gate reads values only
    model = make_model(Vtxt="exp(0.16*(x1^2 + x2^2 + x3^2))")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_assumptions(model) is None


def test_subs_affine_recenters():
    from spikemap.model import PotentialExpr, subs_affine

    V = parse_potential("x1^2 + 2*x2 + x3")
    z0 = (1.0, -2.0, 0.5)
    eps = 0.25
    moved = subs_affine(V.root, z0, eps)
    x = pt(0.3, 0.8, -0.1)
    direct = V.value(pt(*(z0[k] + eps * x[k] for k in range(3))))
    assert PotentialExpr("moved", moved).value(x) == pytest.approx(direct, rel=1e-14)
