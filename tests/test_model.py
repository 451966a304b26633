import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemap.fields import ComplexField3, Hamiltonian, make_grid
from spikemap.model import (
    EvalError,
    ModelError,
    ModelSpec,
    Nonlinearity,
    ParseError,
    SampleLattice,
    ZERO_EXPR,
    gauge_transform,
    parse_gauge,
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
        assert grad[k] == pytest.approx(V.derivative(k).value(x), rel=1e-10, abs=1e-10)


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
    phases = model.link_phases(g, 0.5)
    for per_axis in phases.ph:
        for p in per_axis:
            assert np.all(p == 1.0)


def test_gauge_transform_preserves_h_norm():
    # the magnetic energy is gauge invariant, and the link discretization
    # keeps that exact for polynomial gauge functions
    g = make_grid(radius=3.0, n=24)
    model = make_model(Vtxt="1 + 0.2*x1^2 + x2^2 + 0.5*x3^2",
                       A=("-0.4*x2", "0.4*x1", "0.1"))
    eps = 0.5
    X1, X2, X3 = g.meshgrid()
    u = ComplexField3(g, np.exp(-(X1**2 + X2**2 + X3**2)) * np.exp(1j * X1))
    chi = parse_gauge("0.3*x1*x2 - 0.2*x3^2 + x1")
    u2, model2 = gauge_transform(u, model, chi, eps)
    H1 = Hamiltonian.from_model(model, g, eps)
    H2 = Hamiltonian.from_model(model2, g, eps)
    n1 = H1.quad(u.values, H1.apply(u.values))
    n2 = H2.quad(u2.values, H2.apply(u2.values))
    assert abs(n2 - n1) <= 1e-12 * abs(n1)
    assert np.allclose(np.abs(u2.values), np.abs(u.values), rtol=1e-13)


def test_gauge_gradient_is_symbolic():
    chi = parse_gauge("x1*x2^2 + 3*x3")
    x = pt(0.5, 2.0, -1.0)
    assert chi.grad[0].value(x) == pytest.approx(4.0)
    assert chi.grad[1].value(x) == pytest.approx(2.0)
    assert chi.grad[2].value(x) == pytest.approx(3.0)


def test_validate_fills_bounds_and_passes():
    model = make_model()
    rep = validate_assumptions(model)
    assert rep.passed
    assert rep.v_min == pytest.approx(1.0)
    assert model.V0 == pytest.approx(1.0)
    assert model.K0 == pytest.approx(1.0)
    assert np.allclose(rep.argmin_v, 0.0, atol=1e-12)
    assert set(rep.growth) == {"V", "K", "A"}


def test_validate_rejects_nonpositive_V():
    model = make_model(Vtxt="x1^2")  # vanishes at the origin
    with pytest.raises(ModelError):
        validate_assumptions(model)


def test_validate_flags_bad_theta():
    # f(s) = 1 constant: f(s) s = s while theta F = theta s / 2 > s for theta > 2
    bad = Nonlinearity.custom(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                              lambda s: np.asarray(s, dtype=float) / 2.0, theta=3.0)
    model = ModelSpec(parse_potential("1"), parse_potential("1"), (ZERO_EXPR,) * 3, bad)
    rep = validate_assumptions(model)
    assert not rep.theta_ok
    assert not rep.passed
    assert rep.notes


def test_subs_affine_recenters():
    from spikemap.model import subs_affine, _ev

    V = parse_potential("x1^2 + 2*x2 + x3")
    z0 = (1.0, -2.0, 0.5)
    eps = 0.25
    moved = subs_affine(V.root, z0, eps)
    x = pt(0.3, 0.8, -0.1)
    direct = V.value(pt(*(z0[k] + eps * x[k] for k in range(3))))
    assert _ev(moved, tuple(x)) == pytest.approx(direct, rel=1e-14)
