import csv
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemap import frozen_solver
from spikemap.fields import make_grid
from spikemap.frozen_solver import (
    BracketError,
    ConvergenceError,
    FrozenPoint,
    canonical_energy,
    canonical_profile,
    constrained_sigma,
    explicit_sigma_and_grad,
    frozen_action,
    gradient_flow_3d_real,
    ground_state,
    nehari_project,
    nehari_slack,
    profile_moments,
    radial_residual,
    sample_profile_on_grid,
    ground_energy,
    shoot_radial,
    sigma_r,
)
from spikemap.model import ModelSpec, Nonlinearity, ZERO_EXPR, parse_potential

P0 = FrozenPoint((0.0, 0.0, 0.0), 1.0, 1.0)

# f(s) = s with F(s) = s^2 / 4: the cubic power as a custom pair
CUBIC_AS_CUSTOM = Nonlinearity.custom(
    lambda s: np.asarray(s, dtype=np.float64),
    lambda s: np.asarray(s, dtype=np.float64) ** 2 / 4.0,
    theta=4.0,
)

# Frozen reference values, produced by this same shooting code run at doubled
# resolution (drift 6e-14) and corroborated by the Pohozaev and Nehari
# identities below at the 1e-13 level.
E3 = 18.897251302545
E2 = 43.660236716247
E4 = 9.582590090820
U0_3 = 4.337387680


@pytest.fixture(scope="module")
def prof3():
    return canonical_profile(3.0)


def test_profile_positive_and_decreasing(prof3):
    assert np.all(prof3.u > 0.0)
    assert np.all(np.diff(prof3.u) <= 0.0)
    assert prof3.u0 == pytest.approx(U0_3, abs=5e-9)


def test_residual_contract(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    assert radial_residual(prof3, P0, nl) < 1e-8


def test_residual_contract_steep_case():
    nl = Nonlinearity.power(1.0, 4.5)
    prof = shoot_radial(P0, nl)
    assert radial_residual(prof, P0, nl) < 1e-8


def test_refinement_oracle(prof3):
    # the only oracle for the absolute energy: the same solver, doubled grid
    nl = Nonlinearity.power(1.0, 3.0)
    fine = shoot_radial(P0, nl, n=8000)
    assert fine.energy == pytest.approx(prof3.energy, rel=1e-10)
    assert fine.u0 == pytest.approx(prof3.u0, rel=1e-7)


def test_frozen_energy_values(prof3):
    assert prof3.energy == pytest.approx(E3, rel=1e-9)
    assert canonical_energy(2.0) == pytest.approx(E2, rel=1e-9)
    assert canonical_energy(4.0) == pytest.approx(E4, rel=1e-9)


def test_positive_energies():
    for p in (2.0, 3.0, 4.0):
        assert canonical_energy(p) > 0.0


def test_V_scaling_is_bit_exact(prof3):
    # u_V(x) = 2 w(2x) with V = 4: in the solver's scaled variables the two
    # runs perform identical float operations, so equality is exact
    nl = Nonlinearity.power(1.0, 3.0)
    p4 = shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 4.0, 1.0), nl)
    assert p4.u0 == 2.0 * prof3.u0
    assert p4.energy == 2.0 * prof3.energy
    m = min(p4.u.size, prof3.u.size)
    assert np.array_equal(p4.u[:m], 2.0 * prof3.u[:m])


def test_K_and_lambda_scalings(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    pK = shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 1.0, 2.0), nl)
    assert pK.energy == pytest.approx(prof3.energy / 2.0, rel=1e-12)
    assert canonical_energy(3.0, lam=2.0) == pytest.approx(prof3.energy / 2.0, rel=1e-12)


@pytest.mark.parametrize("p, V, K", [(2.4, 0.7, 0.6), (2.4, 1.9, 2.2),
                                     (3.6, 0.7, 2.2), (3.6, 1.9, 0.6)])
def test_scaling_law_on_lattice(p, V, K):
    # sigma(V, K) = E(p) V^((5-p)/(2p-2)) K^(-2/(p-1)), shooting vs closed form
    nl = Nonlinearity.power(1.0, p)
    sigma, _ = sigma_r(FrozenPoint((0.0, 0.0, 0.0), V, K), nl)
    a = (5.0 - p) / (2.0 * p - 2.0)
    b = 2.0 / (p - 1.0)
    assert sigma == pytest.approx(canonical_energy(p) * V**a * K**(-b), rel=1e-6)


@pytest.mark.parametrize("p, V, K", [(2.4, 0.7, 0.6), (2.4, 1.9, 2.2),
                                     (3.6, 0.7, 2.2), (3.6, 1.9, 0.6)])
def test_ground_state_rescaling_matches_shooting(p, V, K):
    # the rescaled canonical profile against an independent shot at the point
    nl = Nonlinearity.power(1.0, p)
    point = FrozenPoint((0.0, 0.0, 0.0), V, K)
    got = ground_state(point, nl)
    shot = shoot_radial(point, nl)
    assert got.point == point
    assert (got.method, shot.method) == ("rescaled", "shooting")
    assert got.energy == pytest.approx(shot.energy, rel=1e-12)
    m_got, m_shot = profile_moments(got, nl), profile_moments(shot, nl)
    for key in ("mass2", "intF"):
        assert m_got[key] == pytest.approx(m_shot[key], rel=1e-12)
    assert radial_residual(got, point, nl) < 1e-8


def test_ground_state_at_unit_coefficients_is_the_canonical_profile(prof3):
    # V = K = 1 rescales by exactly 1.0, which keeps the magnetic seed bytes
    got = ground_state(P0, Nonlinearity.power(1.0, 3.0))
    assert np.array_equal(got.u, prof3.u)
    assert np.array_equal(got.du, prof3.du)
    assert got.r_max == prof3.r_max
    assert got.energy == prof3.energy


def test_ground_state_shoots_a_custom_nonlinearity(monkeypatch):
    # a real custom shot at the default resolution takes minutes; a sentinel
    # shows the route is taken
    calls = []
    sentinel = object()

    def fake_shoot(point, nonlin):
        calls.append((point, nonlin))
        return sentinel

    monkeypatch.setattr(frozen_solver, "shoot_radial", fake_shoot)
    nl = Nonlinearity.custom(lambda s: np.asarray(s), lambda s: 0.25 * np.asarray(s) ** 2, theta=4.0)
    point = FrozenPoint((0.0, 0.0, 0.0), 1.5, 0.8)
    assert ground_state(point, nl) is sentinel
    assert calls == [(point, nl)]


def test_power_callers_take_the_rescaling(monkeypatch, tmp_path, prof3):
    from spikemap.cli import main
    from spikemap.diagnostics import directional_derivative_sigma
    from spikemap.landscape import find_Sstar
    from spikemap.magnetic_solver import MagneticSolveConfig, _seed_field

    def no_shot(*args, **kwargs):
        raise AssertionError("a power nonlinearity reached shoot_radial")

    monkeypatch.setattr(frozen_solver, "shoot_radial", no_shot)
    V, K = "1 + x1^2 + x2^2 + x3^2", "1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))"
    model = ModelSpec(V=parse_potential(V), K=parse_potential(K), A=(ZERO_EXPR,) * 3,
                      nonlin=Nonlinearity.power(1.0, 3.0))
    z = np.array([0.3, 0.0, 0.0])
    directional_derivative_sigma(z, np.array([1.0, 0.0, 0.0]), model)
    find_Sstar(model, [z])
    _seed_field(model, MagneticSolveConfig(eps=1.0, grid=make_grid(6.0, 16)))
    cfg = tmp_path / "frozen.ini"
    cfg.write_text(f"[model]\nV = {V}\nK = {K}\np = 3\n\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["solve-frozen", str(cfg)]) == 0


def test_shooting_never_repeats_an_integration(monkeypatch):
    # once a bisection bracket spans adjacent floats its midpoint rounds onto
    # an end, and integrating there again would only repeat a verdict
    seen = []
    integrate = frozen_solver._integrate

    def recording(u0, dr, nsteps, force, keep=False):
        seen.append((u0, dr, nsteps))
        return integrate(u0, dr, nsteps, force, keep)

    monkeypatch.setattr(frozen_solver, "_integrate", recording)
    prof = shoot_radial(P0, Nonlinearity.power(1.0, 3.0))
    assert len(seen) == len(set(seen))
    assert prof.energy == pytest.approx(E3, rel=1e-12)


@pytest.mark.parametrize("p", [2.4, 3.0, 3.6])
def test_manifold_identities(p):
    nl = Nonlinearity.power(1.0, p)
    prof = canonical_profile(p)
    mom = profile_moments(prof, nl)
    T, M, N = mom["T"], mom["mass2"], mom["intfu2"]
    I = frozen_action(prof, P0, nl)
    assert T == pytest.approx(3.0 * M * (p - 1.0) / (5.0 - p), rel=1e-10)
    assert T + M == pytest.approx(N, rel=1e-10)
    assert I == pytest.approx((T + M) * (p - 1.0) / (2.0 * (p + 1.0)), rel=1e-10)
    if p == 3.0:
        assert I == pytest.approx(M, rel=1e-11)


def test_nehari_fixed_point(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    t = nehari_project(prof3, P0, nl)
    assert abs(t - 1.0) < 1e-8
    assert abs(nehari_slack(prof3, P0, nl, t)) < 1e-9


def test_nehari_routes_agree(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    t_closed = nehari_project(prof3, P0, nl, method="closed")
    t_bracket = nehari_project(prof3, P0, nl, method="bracket")
    assert t_closed == pytest.approx(t_bracket, rel=1e-10)


@given(c=st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None)
def test_nehari_homogeneity(c):
    # t(c u) = t(u) / c for the cubic nonlinearity
    nl = Nonlinearity.power(1.0, 3.0)
    prof = canonical_profile(3.0)
    scaled = type(prof)(
        r_max=prof.r_max, n=prof.n, u=c * prof.u, du=c * prof.du,
        energy=0.0, point=prof.point, splice_index=prof.splice_index,
    )
    t1 = nehari_project(prof, P0, nl)
    tc = nehari_project(scaled, P0, nl)
    assert tc == pytest.approx(t1 / c, rel=1e-12)


def test_sigma_gradient_matches_finite_differences():
    # directional derivative of the ground energy in the coefficients
    nl = Nonlinearity.power(1.0, 3.0)
    gV = np.array([0.37, -0.1, 0.2])
    gK = np.array([-0.21, 0.05, 0.11])
    w = np.array([1.0, 0.0, 0.0])
    point = FrozenPoint((0.0, 0.0, 0.0), 1.3, 0.8, grad_Vz=tuple(gV), grad_Kz=tuple(gK))
    _, grad = sigma_r(point, nl)
    predicted = float(grad @ w)
    d = 1e-3
    a, b = float(gV @ w), float(gK @ w)
    sp = sigma_r(FrozenPoint((0.0, 0.0, 0.0), 1.3 + d * a, 0.8 + d * b), nl)[0]
    sm = sigma_r(FrozenPoint((0.0, 0.0, 0.0), 1.3 - d * a, 0.8 - d * b), nl)[0]
    assert predicted == pytest.approx((sp - sm) / (2 * d), rel=1e-6)


def test_explicit_route_matches_shooting():
    model = ModelSpec(
        V=parse_potential("1 + x1^2 + x2^2 + x3^2"),
        K=parse_potential("1 + x1"),
        A=(ZERO_EXPR,) * 3,
        nonlin=Nonlinearity.power(1.0, 3.0),
    )
    z = np.array([0.4, -0.3, 0.2])
    ex_sigma, ex_grad, method = ground_energy(z, model)
    sh_sigma, sh_grad = sigma_r(FrozenPoint.from_model(model, z), model.nonlin)
    assert ex_sigma == pytest.approx(sh_sigma, rel=1e-6)
    assert np.allclose(ex_grad, sh_grad, rtol=1e-6)
    assert method == "explicit"


def test_ground_energy_returns_the_bits_of_the_route_it_picks():
    # powers get the closed form and any other f a shot per point, bit for
    # bit, stacked to the shape of z
    V, K = parse_potential("1 + x1^2 + x2^2 + x3^2"), parse_potential("1 + x1")
    power = ModelSpec(V=V, K=K, A=(ZERO_EXPR,) * 3, nonlin=Nonlinearity.power(1.0, 3.0))
    custom = ModelSpec(V=V, K=K, A=(ZERO_EXPR,) * 3, nonlin=CUBIC_AS_CUSTOM)
    zs = np.array([[0.4, -0.3, 0.2], [0.0, 0.1, 0.0]])
    sig, grad, method = ground_energy(zs, power)
    want_sig, want_grad = explicit_sigma_and_grad(zs, power)
    assert np.array_equal(sig, want_sig) and np.array_equal(grad, want_grad)
    assert method == "explicit"
    sig, grad, method = ground_energy(zs, custom, n=250)
    assert sig.shape == (2,) and grad.shape == (2, 3)
    assert method == "shooting"
    for i, z in enumerate(zs):
        s1, g1 = sigma_r(FrozenPoint.from_model(custom, z), custom.nonlin, n=250)
        assert sig[i] == s1 and np.array_equal(grad[i], g1)


def test_balance_point_on_a_ladder_node_is_found():
    # K f(s) = V falls on s = 1 = 10^0, a node of the balance ladder; f = s
    # is the cubic power written out, so the shot is the power shot exactly
    assert frozen_solver._amplitude_scale(P0, CUBIC_AS_CUSTOM) == 1.0
    custom = shoot_radial(P0, CUBIC_AS_CUSTOM, n=600, refine=2)
    power = shoot_radial(P0, Nonlinearity.power(1.0, 3.0), n=600, refine=2)
    assert custom.energy == power.energy


def test_explicit_route_is_vectorized():
    model = ModelSpec(
        V=parse_potential("1 + x2^2"),
        K=parse_potential("2 + sin(x1)"),
        A=(ZERO_EXPR,) * 3,
        nonlin=Nonlinearity.power(1.0, 3.0),
    )
    zs = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [0.2, 0.1, -0.7], [2.0, 0.0, 1.0]])
    sig, grad = explicit_sigma_and_grad(zs, model)
    assert sig.shape == (4,)
    assert grad.shape == (4, 3)
    for i, z in enumerate(zs):
        s1, g1 = explicit_sigma_and_grad(z, model)
        assert sig[i] == pytest.approx(float(s1), rel=1e-14)
        assert np.allclose(grad[i], g1, rtol=1e-14)


def test_constrained_route(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    cs = constrained_sigma(P0, nl)
    assert cs.sigma == pytest.approx(prof3.energy, rel=1e-4)
    assert cs.constraint_drift < 1e-10
    assert cs.t_decrease >= -1e-6
    assert cs.steps >= 1


def test_sigma_monotone_in_coefficients(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    up_V = shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 1.3, 1.0), nl).energy
    up_K = shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 1.0, 1.3), nl).energy
    assert up_V > prof3.energy
    assert up_K < prof3.energy


def test_bracket_error_for_bounded_nonlinearity():
    # f saturates at 1 < V, so every shot undershoots and no bracket exists
    f = lambda s: np.asarray(s) / (1.0 + np.asarray(s))
    F = lambda s: 0.5 * (np.asarray(s) - np.log1p(np.asarray(s)))
    nl = Nonlinearity.custom(f, F, theta=2.5)
    with pytest.raises(BracketError):
        shoot_radial(FrozenPoint((0.0, 0.0, 0.0), 2.0, 1.0), nl, n=600, refine=2)


def test_profile_csv(tmp_path, prof3):
    path = tmp_path / "w.csv"
    prof3.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u"]
    assert len(rows) == prof3.n + 2
    assert float(rows[1][1]) == prof3.u0
    assert float(rows[-1][0]) == pytest.approx(prof3.r_max)


def test_canonical_cache_is_thread_safe():
    results = []

    def worker():
        results.append(canonical_energy(2.6, n=600))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_sample_profile_on_grid(prof3):
    g = make_grid(radius=6.0, n=25)
    vals = sample_profile_on_grid(prof3, g, center=(1.0, 0.0, 0.0), scale=2.0)
    # node at x = (1,0,0) is the center: r = 0
    i0 = 14  # axis value +1.0 on a 25-point axis over [-6, 6]
    assert g.axis(0)[i0] == pytest.approx(1.0)
    assert vals[i0, 12, 12] == pytest.approx(prof3.u0, rel=1e-12)
    # a point at distance 4 from the center samples u(2)
    i4 = 22  # axis value +5.0
    assert vals[i4, 12, 12] == pytest.approx(np.interp(2.0, prof3.r, prof3.u), rel=1e-12)


def test_flow3d_agrees_with_shooting(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    grid = make_grid(radius=9.0, n=32)
    trace = []
    u = gradient_flow_3d_real(P0, nl, grid, tol=1e-5, trace=trace, seed_profile=prof3)
    I3 = frozen_action(u, P0, nl)
    assert I3 == pytest.approx(prof3.energy, rel=0.05)
    # constraint is enforced at every accepted step: the slack is |Q - P| / Q
    assert set(trace[-1]) == {"iter", "energy", "residual", "nehari_slack"}
    assert trace[-1]["energy"] == pytest.approx(I3, rel=1e-12)
    assert max(row["nehari_slack"] for row in trace) < 1e-9
    assert trace[-1]["residual"] < trace[0]["residual"]


def test_flow3d_raises_with_trace_when_starved(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    grid = make_grid(radius=8.0, n=16)
    with pytest.raises(ConvergenceError) as exc:
        gradient_flow_3d_real(P0, nl, grid, tol=1e-12, max_iters=3, seed_profile=prof3,
                              trace=[])
    assert exc.value.trace is not None
    assert len(exc.value.trace) == 3
