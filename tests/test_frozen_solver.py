import csv
import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemap import frozen_solver
from spikemap.cli import main
from spikemap.fields import ConvergenceError, Hamiltonian, ResolutionWarning, make_grid
from spikemap.frozen_solver import (
    BracketError,
    FrozenPoint,
    _simpson,
    canonical_energy,
    canonical_profile,
    constrained_sigma,
    explicit_sigma_and_grad,
    ground_state,
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
    assert radial_residual(prof3) < 1e-8


def test_residual_contract_steep_case():
    prof = shoot_radial(P0, Nonlinearity.power(1.0, 4.5))
    assert radial_residual(prof) < 1e-8


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
    for key in ("mass2", "intF"):
        assert got.moments[key] == pytest.approx(shot.moments[key], rel=1e-12)
    assert radial_residual(got) < 1e-8


def test_ground_state_at_unit_coefficients_is_the_canonical_profile(prof3):
    # V = K = 1 rescales by exactly 1.0, which keeps the magnetic seed bytes
    got = ground_state(P0, Nonlinearity.power(1.0, 3.0))
    assert np.array_equal(got.u, prof3.u)
    assert np.array_equal(got.du, prof3.du)
    assert got.r_max == prof3.r_max
    assert got.energy == prof3.energy


def test_ground_state_shoots_a_custom_nonlinearity(monkeypatch):
    # a real shot of this custom f at the default resolution takes 1.7 s
    # (2-core x86 VM, Python 3.11); a sentinel shows the route is taken
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
    from spikemap.landscape import find_Sstar
    from spikemap.magnetic_solver import _seed_field

    def no_shot(*args, **kwargs):
        raise AssertionError("a power nonlinearity reached shoot_radial")

    monkeypatch.setattr(frozen_solver, "shoot_radial", no_shot)
    V, K = "1 + x1^2 + x2^2 + x3^2", "1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))"
    model = ModelSpec(V=parse_potential(V), K=parse_potential(K), A=(ZERO_EXPR,) * 3,
                      nonlin=Nonlinearity.power(1.0, 3.0))
    z = np.array([0.3, 0.0, 0.0])
    find_Sstar(model, [z])
    _seed_field(model, make_grid(6.0, 16), 1.0, "frozen", 0, None)
    cfg = tmp_path / "frozen.ini"
    cfg.write_text(f"[model]\nV = {V}\nK = {K}\np = 3\n\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    assert main(["solve-frozen", str(cfg)]) == 0


def test_shooting_never_repeats_an_integration(monkeypatch):
    # every shot lands strictly inside the bracket, and the profile is the
    # lower end's stored trajectory, so no run is made twice
    seen = []
    integrate = frozen_solver._integrate

    def recording(u0, dr, nsteps, force):
        seen.append((u0, dr, nsteps))
        return integrate(u0, dr, nsteps, force)

    monkeypatch.setattr(frozen_solver, "_integrate", recording)
    prof = shoot_radial(P0, Nonlinearity.power(1.0, 3.0))
    assert len(seen) == len(set(seen))
    assert prof.energy == pytest.approx(E3, rel=1e-12)


def test_canonical_shot_work_is_bounded(monkeypatch):
    # the secant search on the tail miss needs few runs at the fine step;
    # bisecting to float resolution needs 29 there and 1,073,309 steps, and
    # the search that shot two amplitudes a round made 35 runs of 249,054
    # integrated nodes (the sum of the returned m)
    runs = []
    integrate = frozen_solver._integrate

    def recording(u0, dr, nsteps, force):
        out = integrate(u0, dr, nsteps, force)
        runs.append((dr, out[1]))
        return out

    monkeypatch.setattr(frozen_solver, "_integrate", recording)
    shoot_radial(P0, Nonlinearity.power(1.0, 3.0))
    fine_dr = min(dr for dr, _ in runs)
    assert sum(1 for dr, _ in runs if dr == fine_dr) <= 8
    assert len(runs) <= 24
    assert sum(steps for _, steps in runs) <= 160_000


@pytest.mark.parametrize("p", [1.5, 3.0, 4.5, 4.9])
def test_kept_profile_is_the_lower_end_of_a_closed_bracket(monkeypatch, p):
    # the fine stage ends on an undershoot whose overshooting partner lies
    # within 1e-14 of it, and the profile is that undershoot's trajectory
    runs = []
    integrate = frozen_solver._integrate

    def recording(u0, dr, nsteps, force):
        out = integrate(u0, dr, nsteps, force)
        runs.append((dr, u0, out[0]))
        return out

    monkeypatch.setattr(frozen_solver, "_integrate", recording)
    prof = shoot_radial(P0, Nonlinearity.power(1.0, p))
    fine_dr = min(dr for dr, _, _ in runs)
    fine = [(a, status) for dr, a, status in runs if dr == fine_dr]
    assert (prof.u0, 1) not in fine and any(a == prof.u0 for a, _ in fine)
    hi = min(a for a, status in fine if status == 1 and a > prof.u0)
    assert hi - prof.u0 <= 1e-14 * hi
    assert not any(prof.u0 < a < hi for a, _ in fine)


def _stepwise_integrate(u0, dr, nsteps, force):
    """_integrate with RK4 as a stage function, the form it was written in."""
    uval, vval = frozen_solver._series_start(u0, dr, force)
    u, v = u0, 0.0
    us, vs = [u], [v]

    def acc(r, uu, vv):
        return -2.0 * vv / r + force(uu)

    def step(r, uu, vv, h):
        k1u, k1v = vv, acc(r, uu, vv)
        k2u, k2v = vv + 0.5 * h * k1v, acc(r + 0.5 * h, uu + 0.5 * h * k1u, vv + 0.5 * h * k1v)
        k3u, k3v = vv + 0.5 * h * k2v, acc(r + 0.5 * h, uu + 0.5 * h * k2u, vv + 0.5 * h * k2v)
        k4u, k4v = vv + h * k3v, acc(r + h, uu + h * k3u, vv + h * k3v)
        return (
            uu + h * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0,
            vv + h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
        )

    for i in range(nsteps):
        if i < 2:
            u, v = uval((i + 1) * dr), vval((i + 1) * dr)
        else:
            m = 1 if i >= 256 else -(-256 // i)
            for q in range(m):
                u, v = step(i * dr + q * (dr / m), u, v, dr / m)
        us.append(u)
        vs.append(v)
        if u <= 0.0:
            return 1, i, us, vs
        if v >= 0.0:
            return -1, i, us, vs
    return 0, nsteps, us, vs


def test_narrow_needs_at_most_one_shot_more_than_bisection():
    # a miss flat below the root and nearly zero above it puts every secant
    # root next to the upper end, where regula falsi creeps; the projection
    # still closes [1, 2] to 1e-9 within bisection's 30 shots plus one
    a_star, j = 1.2345, 7
    c = 1.0 + 1.0 / j  # the miss weight at node j for dr = s = 1
    shots = []

    def shoot(a):
        miss = -1.0 if a < a_star else 1e-12
        shots.append(a)
        return frozen_solver._Shot(a, 1 if a > a_star else -1, 8, np.ones(9),
                                   np.full(9, miss - c))

    lo, hi = frozen_solver._narrow(shoot(1.0), shoot(2.0), shoot, 1.0, 1.0, 1e-9)
    assert lo.a < a_star < hi.a and hi.a - lo.a <= 1e-9 * hi.a
    assert len(shots) - 2 <= 31


def _single_loop_integrate(u0, dr, nsteps, force):
    """_integrate as one loop over every node with m substeps, m = 1 from
    node 256 on: the form it had before the loop was split in two."""
    u, v = float(u0), 0.0
    uval, vval = frozen_solver._series_start(u, dr, force)
    us = np.empty(nsteps + 1)
    vs = np.empty(nsteps + 1)
    us[0], vs[0] = u, v
    for i in range(nsteps):
        if i < 2:
            u, v = uval((i + 1) * dr), vval((i + 1) * dr)
        else:
            m = 1 if i >= 256 else -(-256 // i)
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
    return 0, nsteps, us, vs


@pytest.mark.parametrize("nonlin", [Nonlinearity.power(1.0, 3.0), Nonlinearity.power(1.0, 1.5),
                                    CUBIC_AS_CUSTOM], ids=["p3", "p1.5", "custom"])
@pytest.mark.parametrize("nsteps", [3, 255, 256, 257, 4000])
def test_split_integrate_matches_the_single_loop(nonlin, nsteps):
    # the axis loop and the flat loop do the single loop's operations in its
    # order, so every trajectory, early verdicts included, is bit-equal
    point = FrozenPoint((0.0, 0.0, 0.0), 1.3, 0.9)
    force = frozen_solver._make_force(point, nonlin)
    scale = frozen_solver._amplitude_scale(point, nonlin)
    dr = 15.0 / math.sqrt(point.Vz) / 4000
    p = nonlin.p if nonlin.is_power else 3.0  # CUBIC_AS_CUSTOM is f(s) = s
    crit = canonical_profile(p).u0 * (point.Vz / point.Kz) ** (1.0 / (p - 1.0))
    statuses = set()
    for a in (0.5 * scale, crit * (1.0 - 1e-3), crit * (1.0 + 1e-3), 3.0 * scale):
        got = frozen_solver._integrate(a, dr, nsteps, force)
        ref = _single_loop_integrate(a, dr, nsteps, force)
        assert got[:2] == ref[:2]
        m = got[1]
        assert got[2][: m + 2].tobytes() == ref[2][: m + 2].tobytes()
        assert got[3][: m + 2].tobytes() == ref[3][: m + 2].tobytes()
        statuses.add(got[0])
    if nsteps == 4000:
        assert statuses == {-1, 1}


@pytest.mark.parametrize("nonlin", [Nonlinearity.power(1.0, 3.0), Nonlinearity.power(1.0, 4.5),
                                    CUBIC_AS_CUSTOM], ids=["p3", "p4.5", "custom"])
@pytest.mark.parametrize("rel", [-1e-3, -1e-9, 0.0, 1e-9, 1e-3])
def test_integrate_matches_the_stepwise_reference(nonlin, rel):
    # the inlined stages do the same float operations in the same order
    point = FrozenPoint((0.0, 0.0, 0.0), 1.3, 0.9)
    force = frozen_solver._make_force(point, nonlin)
    a = frozen_solver._amplitude_scale(point, nonlin) * 1.6 * (1.0 + rel)
    dr = 15.0 / math.sqrt(point.Vz) / 1200
    status, m, us, vs = frozen_solver._integrate(a, dr, 1620, force)
    ref = _stepwise_integrate(a, dr, 1620, force)
    assert (status, m) == ref[:2]
    assert us[: m + 2].tolist() == ref[2] and vs[: m + 2].tolist() == ref[3]


def _bisection_shot(point, nonlin, n, refine):
    """The two-stage bisection shot the secant search replaced, the oracle for
    it: the ladder's first (undershoot, overshoot) pair bisected at n steps
    down to adjacent floats, then a window of 1e-8 around the coarse lower
    end widened fourfold until it brackets at refine * n steps, bisected 34
    times, and the lower end integrated again for the profile."""
    dr = frozen_solver._R0 / math.sqrt(point.Vz) / n
    force = frozen_solver._make_force(point, nonlin)

    def bisect(lo, hi, overshoots, rounds):
        for _ in range(rounds):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            lo, hi = (lo, mid) if overshoots(mid) else (mid, hi)
        return lo, hi

    def coarse(a):
        return frozen_solver._integrate(a, dr, n, force)[0] == 1

    ladder = frozen_solver._amplitude_scale(point, nonlin) * 10.0 ** np.linspace(-1.0, 2.0, 25)
    over = [coarse(a) for a in ladder]
    i = next(i for i in range(24) if not over[i] and over[i + 1])
    lo, _ = bisect(ladder[i], ladder[i + 1], coarse, 80)

    n_f, dr_f = n * refine, dr / refine

    def fine(a):
        return frozen_solver._integrate(a, dr_f, int(1.35 * n_f), force)[0] == 1

    w, down = 1e-8 * lo, fine(lo)
    for _ in range(14):
        cand = lo - w if down else lo + w
        if fine(cand) != down:
            break
        w *= 4.0
    f_lo, f_hi = bisect(*((cand, lo) if down else (lo, cand)), fine, 34)
    _, m, us, vs = frozen_solver._integrate(f_lo, dr_f, n_f, force)
    return frozen_solver._spliced_profile(point, nonlin, us[: m + 1], vs[: m + 1], dr_f)


@pytest.mark.parametrize("V, K", [(1.0, 1.0), (0.7, 2.2), (1.9, 0.6)])
@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 4.5])
def test_shot_matches_bisection_oracle(p, V, K):
    # refine 4, not 2: at p = 4.5 a fine step of 15/1200 leaves the verdicts
    # flipping back and forth across 3e-11 of amplitude, so no two searches
    # need agree there to 1e-12; at 15/2400 they agree to 4e-14
    point, nl = FrozenPoint((0.0, 0.0, 0.0), V, K), Nonlinearity.power(1.0, p)
    got = shoot_radial(point, nl, n=600, refine=4)
    ref = _bisection_shot(point, nl, 600, 4)
    assert got.energy == pytest.approx(ref.energy, rel=1e-12)
    assert got.u0 == pytest.approx(ref.u0, rel=1e-12)


@pytest.mark.parametrize("p", [2.4, 3.0, 3.6])
def test_manifold_identities(p):
    # Pohozaev, Nehari (T + V mass2 = K intfu2 at V = K = 1) and the action
    prof = canonical_profile(p)
    T, M, N = (prof.moments[k] for k in ("T", "mass2", "intfu2"))
    I = prof.energy
    assert T == pytest.approx(3.0 * M * (p - 1.0) / (5.0 - p), rel=1e-10)
    assert T + M == pytest.approx(N, rel=1e-10)
    assert I == pytest.approx((T + M) * (p - 1.0) / (2.0 * (p + 1.0)), rel=1e-10)
    if p == 3.0:
        assert I == pytest.approx(M, rel=1e-11)


def test_profile_integrals_are_computed_once(monkeypatch):
    # nothing is integrated until asked for; then Sigma, grad Sigma and the
    # moments all read one pass of four integrals
    calls = []
    simpson = frozen_solver._simpson
    monkeypatch.setattr(frozen_solver, "_simpson", lambda y, dr: calls.append(1) or simpson(y, dr))
    z = (0.2, 0.0, -0.1)
    gV, gK = (0.37, -0.1, 0.2), (-0.21, 0.05, 0.11)
    prof = ground_state(FrozenPoint(z, 1.3, 0.8, gV, gK), Nonlinearity.power(1.0, 3.0))
    assert calls == []
    mom = prof.moments
    sigma, grad = prof.energy, prof.grad_sigma
    assert prof.moments is mom and len(calls) == 4
    assert sigma == 0.5 * (mom["T"] + 1.3 * mom["mass2"]) - 0.8 * mom["intF"]
    assert np.array_equal(grad, 0.5 * mom["mass2"] * np.array(gV) - mom["intF"] * np.array(gK))
    assert dataclasses.replace(prof, point=FrozenPoint(z, 1.3, 0.8)).grad_sigma is None


def _gaussian_hamiltonian(nonlin):
    grid = make_grid(radius=4.0, n=12)
    u = np.exp(-sum(X**2 for X in grid.meshgrid()))
    return Hamiltonian(grid, 1.0, P0.Vz, P0.Kz, nonlin, None), u


def _scale(H, u):
    """The Nehari scale t that H.project puts on u, read off t u."""
    tu = H.project(u)[0]
    return float(np.vdot(u, tu) / np.vdot(u, u))


def test_nehari_scale_closed_form_matches_bracket():
    # the cubic power's closed form against the bracketed root solve that
    # the same f written out as a custom pair takes
    H_power, u = _gaussian_hamiltonian(Nonlinearity.power(1.0, 3.0))
    H_custom, _ = _gaussian_hamiltonian(CUBIC_AS_CUSTOM)
    t_closed, t_bracket = _scale(H_power, u), _scale(H_custom, u)
    assert t_closed != 1.0
    assert t_bracket == pytest.approx(t_closed, rel=1e-10)


@given(c=st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None)
def test_nehari_homogeneity(c):
    # t(c u) = t(u) / c for the cubic nonlinearity: c u and u project alike
    H, u = _gaussian_hamiltonian(Nonlinearity.power(1.0, 3.0))
    np.testing.assert_allclose(H.project(c * u)[0], H.project(u)[0], rtol=1e-12, atol=0.0)


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
    # at V(z) = K(z) = 1 solve-frozen writes the canonical profile, bit for bit
    cfg = tmp_path / "frozen.ini"
    cfg.write_text(f"[model]\nV = 1 + x1^2 + x2^2 + x3^2\nK = 1\np = 3\n\n[output]\ndirectory = {tmp_path}\n")
    assert main(["solve-frozen", str(cfg)]) == 0
    with open(tmp_path / "profile.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u", "du"]
    assert len(rows) == prof3.n + 2
    assert float(rows[1][1]) == prof3.u0
    assert float(rows[1][2]) == prof3.du[0]
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


def test_canonical_argument_spellings_share_one_shot(monkeypatch):
    calls = []
    shoot = frozen_solver.shoot_radial
    monkeypatch.setattr(frozen_solver, "shoot_radial", lambda *a, **k: calls.append(a) or shoot(*a, **k))
    e = canonical_energy(2.65, n=600)
    assert canonical_energy(2.65, 1.0, 600) == e
    assert canonical_profile(np.float64(2.65), lam=1, n=600).energy == e
    assert len(calls) == 1


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


def _flow3d(point, nl, grid, prof, tol, trace, max_iters=20000):
    """The real 3D flow of the frozen problem: the descent on the free
    stencil from the shot profile sampled on the grid."""
    H = Hamiltonian(grid, 1.0, point.Vz, point.Kz, nl, None)
    return H.descend(sample_profile_on_grid(prof, grid), tol, max_iters, trace)


def test_flow3d_agrees_with_shooting(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    grid = make_grid(radius=9.0, n=32)
    trace = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResolutionWarning)  # a resolved spike, not a pinned one
        u = _flow3d(P0, nl, grid, prof3, 1e-5, trace)
    I3 = Hamiltonian(grid, 1.0, P0.Vz, P0.Kz, nl, None).energy(u)
    assert I3 == pytest.approx(prof3.energy, rel=0.05)
    # constraint is enforced at every accepted step: the slack is |Q - P| / Q
    assert set(trace[-1]) == {"iter", "energy", "residual", "nehari_slack"}
    assert trace[-1]["energy"] == pytest.approx(I3, rel=1e-12)
    assert max(row["nehari_slack"] for row in trace) < 1e-9
    assert trace[-1]["residual"] < trace[0]["residual"]


def test_flow3d_warns_when_it_ends_lattice_pinned():
    # from this Gaussian seed the descent reaches the symmetric state at
    # energy 25.6136, a saddle on this coarse lattice, whose residual meets
    # a tol of 1e-8; at tol 1e-10 it leaves it, when rounding decides, and
    # stops 80 to 90 iterations in on a pinned state at 12.4553, far below
    # the continuum ground energy of about 18.95: the flow must say so, as a
    # solve does.  The amplitude is a fixed number, not the shot's u(0),
    # which moves at rounding level whenever the amplitude search changes
    nl = Nonlinearity.power(1.0, 3.0)
    point = FrozenPoint((0.0, 0.0, 0.0), 1.7, 1.3)
    shot = shoot_radial(point, nl, n=1500)
    seed = dataclasses.replace(shot, u=5.0 * np.exp(-shot.r**2 / 2.0))
    trace = []
    with pytest.warns(ResolutionWarning):
        _flow3d(point, nl, make_grid(radius=8.0, n=20), seed, 1e-10, trace)
    assert trace[-1]["energy"] < 0.7 * shot.energy


def test_flow3d_custom_f_takes_the_power_route_energy(prof3):
    # f(s) = s given as a custom pair meets the same line search through the
    # bracketed Nehari scale where the power takes the closed form: the same
    # iterations, energies within 5e-15 (measured)
    grid = make_grid(radius=9.0, n=32)
    runs = []
    for nl in (Nonlinearity.power(1.0, 3.0), CUBIC_AS_CUSTOM):
        trace = []
        _flow3d(P0, nl, grid, prof3, 1e-8, trace)
        runs.append(trace[-1])
    assert abs(runs[0]["iter"] - runs[1]["iter"]) <= 1
    assert runs[1]["energy"] == pytest.approx(runs[0]["energy"], rel=1e-12)


def test_flow3d_raises_with_trace_when_starved(prof3):
    nl = Nonlinearity.power(1.0, 3.0)
    grid = make_grid(radius=8.0, n=16)
    with pytest.raises(ConvergenceError) as exc:
        _flow3d(P0, nl, grid, prof3, 1e-12, [], max_iters=3)
    assert exc.value.trace is not None
    assert len(exc.value.trace) == 3


def test_simpson_is_scipys_bit_for_bit(prof3):
    # scipy is an independent reference here only: the package integrates
    # profiles with its own _simpson so that power-model runs never load it
    from scipy.integrate import simpson

    rng = np.random.default_rng(5)
    for n in (3, 4, 5, 6, 7, 1001, 1002):
        for dx in (0.37, rng.uniform(0.1, 2.0)):
            y = rng.standard_normal(n)
            assert _simpson(y, dx) == float(simpson(y, dx=dx))
    r, dr = prof3.r, prof3.dr
    assert r.size % 2 == 0  # the canonical p = 3 profile takes the even-count correction
    w = 4.0 * np.pi * r * r
    for y in (prof3.du**2 * w, prof3.u**2 * w, prof3.u**4 * w):
        assert _simpson(y, dr) == float(simpson(y, dx=dr))
    assert _simpson(prof3.u[:-1] ** 2 * w[:-1], dr) == float(simpson(prof3.u[:-1] ** 2 * w[:-1], dx=dr))
