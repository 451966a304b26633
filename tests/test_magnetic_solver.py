import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikemap import fields, frozen_solver, magnetic_solver
from spikemap.fields import ConvergenceError, Field3, Hamiltonian, ResolutionWarning, make_grid
from spikemap.frozen_solver import (
    FrozenPoint,
    SolverError,
    sample_profile_on_grid,
    shoot_radial,
)
from spikemap.magnetic_solver import (
    BoundaryMassError,
    energy_J,
    pde_residual,
    phase_factor_split,
    rescale,
    rescaled_model,
    solve_frozen_magnetic,
    solve_magnetic,
)
from spikemap.model import (
    ModelSpec,
    Nonlinearity,
    ZERO_EXPR,
    gauge_transform,
    parse_potential,
)

# ground energy of the unit-coefficient frozen problem at p = 3, from the
# radial shooting solver (see test_frozen_solver.py for its corroboration)
E3 = 18.897251302545


def mk_model(Vtxt="1", Ktxt="1", A=None, lam=1.0, p=3.0):
    Ae = tuple(parse_potential(t) for t in A) if A else (ZERO_EXPR,) * 3
    return ModelSpec(
        V=parse_potential(Vtxt),
        K=parse_potential(Ktxt),
        A=Ae,
        nonlin=Nonlinearity.power(lam, p),
    )


@pytest.fixture(scope="module")
def base48():
    """Unit-coefficient solve on the calibrated box, with captured warnings."""
    model = mk_model()
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sol = solve_magnetic(model, make_grid(radius=11.5, n=48), 1.0, tol=1e-5)
    return model, sol, rec


@pytest.fixture(scope="module")
def const_field48(base48):
    model = mk_model(A=("0.3", "-0.2", "0.1"))
    return model, solve_magnetic(model, make_grid(radius=11.5, n=48), 1.0, tol=1e-5)


@pytest.fixture(scope="module")
def bowl48():
    """Small-eps solve in a shallow potential well centered at the origin."""
    model = mk_model(Vtxt="1 + 0.05*(x1^2 + x2^2 + x3^2)")
    return model, solve_magnetic(model, make_grid(radius=8.0, n=48), 0.5, tol=1e-5)


def test_base_energy_near_frozen_ground_energy(base48):
    _, sol, _ = base48
    assert sol.scaled_energy == pytest.approx(E3, rel=2e-2)
    assert sol.energy_J == sol.scaled_energy  # eps = 1


def test_base_solution_is_real_up_to_rounding(base48):
    # without a field the descent preserves the (real) seed's phase exactly
    _, sol, _ = base48
    peak = float(np.abs(sol.u.values).max())
    assert float(np.abs(sol.u.values.imag).max()) < 1e-12 * peak


def test_base_constraint_slack(base48):
    _, sol, _ = base48
    assert sol.nehari_slack < 1e-12


def test_base_spike_sits_at_the_origin(base48):
    _, sol, _ = base48
    assert float(np.max(np.abs(sol.spike))) < 1e-6


def test_reported_residual_is_the_equation_residual(base48):
    model, sol, _ = base48
    _, rms = pde_residual(sol.u, model, sol.eps)
    assert rms == pytest.approx(sol.residual_rms, rel=1e-6)
    un = math.sqrt(float(np.mean(np.abs(sol.u.values) ** 2)))
    assert sol.residual_rms <= 1e-5 * un


def test_hamiltonian_is_what_energy_and_residual_read(base48):
    model, sol, _ = base48
    H = Hamiltonian.from_model(model, sol.u.grid, sol.eps)
    res, rms = H.residual(sol.u.values, H.apply(sol.u.values))
    field, rms_pde = pde_residual(sol.u, model, sol.eps)
    assert H.energy(sol.u.values) == energy_J(sol.u, model, sol.eps)
    assert np.array_equal(res, field.values)
    assert rms == rms_pde
    # the descent reads the same energy off its own iterate
    assert H.energy(sol.u.values) == pytest.approx(sol.energy_J, rel=1e-12)


def test_descent_applies_the_stencil_once_per_iteration(monkeypatch):
    # the accepted step carries t (Tu + a T d) to the next residual, so only
    # the seed's projection and T d, one per step, apply the stencil
    calls = []
    kinetic = fields.apply_link_kinetic

    def counted(*args):
        calls.append(1)
        return kinetic(*args)

    # wherever a module holds the operator by name, as the benchmark's tracer does
    for mod in (fields, frozen_solver, magnetic_solver):
        if getattr(mod, "apply_link_kinetic", None) is kinetic:
            monkeypatch.setattr(mod, "apply_link_kinetic", counted)
    sol = solve_magnetic(mk_model(Vtxt="1 + 0.1*(x1^2 + x2^2 + x3^2)"), make_grid(radius=9.0, n=24), 1.0,
                         tol=1e-6)
    assert sol.iterations > 10
    assert len(calls) == sol.iterations + 1


BENCH = dict(Vtxt="1 + x1^2 + x2^2 + x3^2", A=("-0.25*x2", "0.25*x1", "0"))


def _global_step_descend(H, u, tol, max_iters):
    """A heavy-ball descent with one scalar step 1.8 / (18.14 eps^2 / h^2 +
    (1 + p) sup V) for every node, momentum 0.95 and a fixed step: the
    independent oracle whose converged energy the conjugate-gradient descent
    must reach."""
    eta = 1.8 / (18.14 * H.eps**2 / H.grid.spacing**2 + (1.0 + H.nonlin.p) * H.vmax)
    u, Tu, Q, _ = H.project(u * H.mask)
    mom = np.zeros_like(u)
    for it in range(max_iters):
        m2 = np.abs(u) ** 2
        res, rn = H.residual(u, Tu)
        if rn <= H.stop_level(tol, m2):
            return u, it, 0.5 * Q - H.potential(m2)
        if fields._re_dot(mom, res) < 0.0:
            mom[:] = 0.0
        mom = 0.95 * mom + res
        u, Tu, Q, _ = H.project((u - eta * mom) * H.mask)
    raise AssertionError("the oracle descent did not converge")


def _frozen_seed(grid):
    X = grid.meshgrid()
    return np.exp(-(X[0] ** 2 + X[1] ** 2 + X[2] ** 2) / 2.0)


def test_per_node_step_with_constant_V_is_the_global_step():
    # on the frozen problem eta(x) is the oracle's one scalar step, and both
    # descents stop at the symmetric state: its energy agrees to 2.7e-13
    # relative (measured), and CG gets there in 23 iterations to the heavy
    # ball's 39.  That state is a saddle on this coarse lattice: at tol 1e-8
    # the heavy ball leaves it for a lattice-pinned one, and CG, whose
    # residual meets 1e-8 there, leaves it at tol 1e-10
    # (test_descent_reads_scalar_and_array_V_alike).
    grid = make_grid(radius=8.0, n=20)
    nl = Nonlinearity.power(1.0, 3.0)
    H = Hamiltonian(grid, 1.0, 1.7, 1.3, nl, None)
    trace = []
    u = H.descend(_frozen_seed(grid), 1e-6, 500, trace)
    ref, iters, energy = _global_step_descend(H, _frozen_seed(grid), 1e-6, 500)
    assert 10 < trace[-1]["iter"] < iters
    assert trace[-1]["energy"] == pytest.approx(energy, rel=1e-8)
    assert np.max(np.abs(u - ref)) <= 1e-6 * np.max(np.abs(ref))  # 8.7e-8 measured


def test_descent_reaches_the_oracle_energy_on_the_bench_model():
    # where V varies the oracle's global step is held to sup V = 244 at the
    # box corners and takes 142 iterations to tol 1e-8; CG, preconditioned
    # node by node, takes 18, and the energies agree to 7e-14 (measured)
    model, grid = mk_model(**BENCH), make_grid(radius=9.0, n=32)
    H = Hamiltonian.from_model(model, grid, 1.0)
    seed = magnetic_solver._seed_field(model, grid, 1.0, "frozen", 0, None)
    trace = []
    H.descend(seed, 1e-8, 500, trace)
    _, iters, energy = _global_step_descend(H, seed, 1e-8, 500)
    assert trace[-1]["iter"] < iters
    assert trace[-1]["energy"] == pytest.approx(energy, rel=1e-8)


def test_descent_reads_scalar_and_array_V_alike():
    # the step is built from H.V node by node: a constant V given as a full
    # array takes the very iterates of the scalar.  At tol 1e-10 the descent
    # leaves the symmetric saddle for a lattice-pinned state (energy
    # 12.4553), so each run raises the pinning warning.
    grid = make_grid(radius=8.0, n=20)
    nl = Nonlinearity.power(1.0, 3.0)
    runs = []
    for V in (1.7, np.full(grid.dims, 1.7)):
        trace = []
        with pytest.warns(ResolutionWarning):
            u = Hamiltonian(grid, 1.0, V, 1.3, nl, None).descend(_frozen_seed(grid), 1e-10, 500, trace)
        runs.append((u, trace))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert len(runs[0][1]) > 10
    assert runs[0][1][-1]["energy"] < 13.0


def test_per_node_step_converges_the_bench_model_in_few_iterations():
    # a work guard: the global step 1.8 / (18.14 eps^2 / h^2 + 4 sup V), with
    # sup V = 244 reached only at the box corners, took 93 iterations here,
    # the per-node heavy ball 30, and CG takes 12
    sol = solve_magnetic(mk_model(**BENCH), make_grid(radius=9.0, n=32), 1.0, tol=1e-6)
    assert sol.iterations <= 16


def test_tighter_tolerance_moves_neither_energy_nor_spike():
    # a thousandfold tighter stop rule: the tol-1e-6 answer already sits on
    # the converged one (1.6e-10 relative in energy, measured)
    model, grid = mk_model(**BENCH), make_grid(radius=9.0, n=32)
    loose = solve_magnetic(model, grid, 1.0, tol=1e-6)
    tight = solve_magnetic(model, grid, 1.0, tol=1e-9)
    assert tight.iterations > loose.iterations
    assert abs(loose.scaled_energy - tight.scaled_energy) <= 1e-8 * tight.scaled_energy
    # the residual carried through t (Tu + a T d) from step to step is the
    # fresh one to rounding (1.3e-9 relative here, measured)
    assert tight.residual_rms == pytest.approx(pde_residual(tight.u, model, 1.0)[1], rel=1e-8)
    assert np.max(np.abs(loose.spike - tight.spike)) <= grid.spacing / 100


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the descent's inner products are summed in numpy's fixed order, so a
    # threaded BLAS dot cannot move the last bits of the solve or its outputs;
    # None unsets all three BLAS variables, for the CLI's own default
    src = str(Path(magnetic_solver.__file__).resolve().parents[1])
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = []
    for threads in ("1", "2", None):
        out = tmp_path / f"out{threads}"
        cfg = tmp_path / f"run{threads}.ini"
        cfg.write_text(
            "[model]\nV = 1 + x1^2 + x2^2 + x3^2\nK = 1\np = 3\n"
            "A1 = -0.25*x2\nA2 = 0.25*x1\nA3 = 0\n\n"
            "[solver]\ngrid_radius = 6.0\ngrid_points = 24\neps = 1.0\ntol = 1e-6\n\n"
            f"[output]\ndirectory = {out}\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env.update({} if threads is None else {"OPENBLAS_NUM_THREADS": threads},
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "spikemap.cli", "solve-magnetic", str(cfg)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append([(out / name).read_bytes() for name in
                        ("solution_eps1.0.spkf", "trace_eps1.0.csv", "report_eps1.0.json")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_quad_does_not_depend_on_memory_layout():
    # verify reads snapshots back Fortran-ordered
    grid = make_grid(radius=6.0, n=20)
    model = mk_model(Vtxt="1 + x1^2 + x2^2 + x3^2", A=("-0.25*x2", "0.25*x1", "0"))
    H = Hamiltonian.from_model(model, grid, 1.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    uF = np.asfortranarray(u)
    assert uF.flags.f_contiguous and not uF.flags.c_contiguous
    assert H.quad(uF, H.apply(uF)) == H.quad(u, H.apply(u))
    assert H.energy(uF) == H.energy(u)


def test_trace_records_the_descent(base48):
    _, sol, _ = base48
    assert len(sol.trace) == sol.iterations + 1
    assert sol.trace[-1]["iter"] == sol.iterations
    assert set(sol.trace[0]) == {"iter", "energy", "residual", "nehari_slack"}
    assert sol.trace[-1]["residual"] < sol.trace[0]["residual"]


def test_frozen_seed_raises_no_resolution_warning(base48):
    _, _, rec = base48
    assert not any(issubclass(w.category, ResolutionWarning) for w in rec)


def test_constant_field_changes_nothing_observable(base48, const_field48):
    # a constant vector potential is a pure gauge ghost on the lattice too
    _, sol0, _ = base48
    modelA, solA = const_field48
    assert abs(solA.energy_J - sol0.energy_J) < 1e-12 * abs(sol0.energy_J)
    split = phase_factor_split(solA.u, (0.0, 0.0, 0.0), modelA)
    assert split.imag_fraction < 1e-10


def test_gauge_change_moves_nothing_observable(base48):
    model, sol, _ = base48
    chi = parse_potential("0.3*x1*x2 - 0.2*x3^2 + 0.5*x1")
    u2, shifted = gauge_transform(sol.u, model, chi, 1.0)
    assert energy_J(u2, shifted, 1.0) == pytest.approx(sol.energy_J, rel=1e-12)
    m0 = float((np.abs(sol.u.values) ** 2).sum())
    m2 = float((np.abs(u2.values) ** 2).sum())
    assert m2 == pytest.approx(m0, rel=1e-12)
    _, rms2 = pde_residual(u2, shifted, 1.0)
    assert rms2 == pytest.approx(sol.residual_rms, rel=1e-10)


def test_energy_of_zero_field_is_zero():
    grid = make_grid(radius=5.0, n=12)
    z = Field3(grid, np.zeros(tuple(grid.dims), dtype=np.complex128))
    assert energy_J(z, mk_model(), 1.0) == 0.0


def test_energy_matches_gaussian_closed_form():
    """Against exact moments of exp(-|y|^2 / (2 s^2)) at p = 3.

    The potential density integrates half of f, so that varying the energy
    yields the equation with coefficient K f(|u|^2) u; at p = 3 that makes
    the quartic term |u|^4 / 4.  The leftover 3e-6 is the stencil's sixth
    order bite out of the kinetic term at this spacing.
    """
    s = 1.5
    grid = make_grid(radius=12.0, n=64)
    X = grid.meshgrid()
    r2 = X[0] ** 2 + X[1] ** 2 + X[2] ** 2
    G = Field3(grid, np.exp(-r2 / (2.0 * s * s)).astype(np.complex128))
    M = (math.pi * s * s) ** 1.5
    T = 1.5 / (s * s) * M
    P = 0.25 * (math.pi * s * s / 2.0) ** 1.5
    exact = 0.5 * (T + M) - P
    assert energy_J(G, mk_model(), 1.0) == pytest.approx(exact, rel=3e-5)


def test_rescale_at_unit_scale_is_the_identity(base48):
    _, sol, _ = base48
    v = rescale(sol.u, sol.eps, (0.0, 0.0, 0.0))
    assert v.grid == sol.u.grid
    assert v.values is sol.u.values


def test_rescale_maps_its_nodes_back_onto_the_solve_nodes(base48):
    # y = (x - z0) / eps is affine: z0 + eps y lands on the source nodes x
    # to rounding, and the view's values are the source's own
    _, sol, _ = base48
    src = sol.u.grid
    for eps, z0 in ((1.0, (0.7, -0.45, 0.3)), (0.5, (1.3, 0.4, -2.2))):
        v = rescale(sol.u, eps, z0)
        assert v.grid.dims == src.dims
        assert v.values is sol.u.values
        for k in range(3):
            x = src.axis(k)
            assert np.allclose(z0[k] + eps * v.grid.axis(k), x, rtol=0.0, atol=4e-15 * np.abs(x).max())


def test_rescale_rejects_centers_outside_the_box(base48):
    _, sol, _ = base48
    with pytest.raises(SolverError):
        rescale(sol.u, sol.eps, (12.0, 0.0, 0.0))


def _assert_blowup_view_is_exact(model, sol, z0):
    # the view holds the solved values on the solved nodes, so under the
    # model read at z0 + eps y and at unit eps its residual and energy are
    # the x-frame ones, J scaled by eps^-3, wherever z0 sits between nodes
    v = rescale(sol.u, sol.eps, z0)
    shifted = rescaled_model(model, z0, sol.eps)
    _, rms_u = pde_residual(sol.u, model, sol.eps)
    _, rms_v = pde_residual(v, shifted, 1.0)
    assert rms_u > 0.0
    assert rms_v == pytest.approx(rms_u, rel=1e-12, abs=0.0)
    J_u = energy_J(sol.u, model, sol.eps)
    assert energy_J(v, shifted, 1.0) == pytest.approx(J_u / sol.eps**3, rel=1e-12)


def test_bowl_spike_and_blowup_view(bowl48):
    """The blow-up view solves the unit-scale equation with shifted data."""
    model, sol = bowl48
    h = sol.u.grid.spacing
    assert float(np.max(np.abs(sol.spike))) < h
    _assert_blowup_view_is_exact(model, sol, tuple(sol.spike))


def test_blowup_view_is_exact_around_an_off_node_point(bowl48):
    # a linear A puts the link phases to the test too; the identity holds
    # for any field, so the bowl's solution serves
    model, sol = bowl48
    model = ModelSpec(V=model.V, K=model.K, nonlin=model.nonlin,
                      A=tuple(parse_potential(t) for t in ("0.2 - 0.15*x2", "0.15*x1", "0.05*x1 + 0.1")))
    _assert_blowup_view_is_exact(model, sol, (0.123, -0.071, 0.049))


def test_scaled_readings_are_unit_scale_quantities(bowl48):
    model, sol = bowl48
    eps3 = sol.eps**3
    assert sol.scaled_energy == pytest.approx(
        energy_J(sol.u, model, sol.eps) / eps3, rel=1e-12
    )


@pytest.mark.parametrize("z", [(1.0, 0.5, 0.0), (-0.7, 2.3, -1.1)])
def test_rescaled_model_at_eps_zero_reads_each_coefficient_at_z(z):
    # x -> z + 0 x: every node of the frozen model holds the model's value
    # at z to the bit, which is what solve_frozen_magnetic relies on
    model = mk_model(
        Vtxt="1 + 0.1*(x1^2 + x2^2 + x3^2) + 0.3*sin(x2)",
        Ktxt="1 + 0.5*exp(-((x1-1)^2 + x2^2 + x3^2))",
        A=("0.4*x2", "-0.3*x1*exp(-x3^2)", "0.2"),
    )
    grid = make_grid(radius=4.0, n=9)
    frozen = rescaled_model(model, z, 0.0)
    zz = np.asarray(z)
    assert np.array_equal(frozen.V.on_grid(grid), np.full(grid.dims, model.V.value(zz)))
    assert np.array_equal(frozen.K.on_grid(grid), np.full(grid.dims, model.K.value(zz)))
    Az = model.A_at(zz)
    for m in range(3):
        assert np.array_equal(frozen.A[m].on_grid(grid), np.full(grid.dims, Az[m]))


def test_frozen_solve_matches_the_real_flow():
    model = mk_model(Vtxt="1 + 0.1*(x1^2 + x2^2 + x3^2)")
    z = (1.0, 0.5, 0.0)
    grid = make_grid(radius=9.0, n=32)
    sol = solve_frozen_magnetic(z, model, grid, tol=1e-6)
    point = FrozenPoint.from_model(model, np.asarray(z))
    H = Hamiltonian(grid, 1.0, point.Vz, point.Kz, model.nonlin, None)
    u = H.descend(sample_profile_on_grid(shoot_radial(point, model.nonlin), grid), 1e-6, 20000, [])
    I = H.energy(u)
    assert sol.energy_J == pytest.approx(I, rel=1e-10)


def test_frozen_solve_ignores_the_field_value():
    # freezing makes A constant, and a constant field is removable
    mu = mk_model(Vtxt="1 + 0.1*(x1^2 + x2^2 + x3^2)")
    ma = mk_model(
        Vtxt="1 + 0.1*(x1^2 + x2^2 + x3^2)",
        A=("0.4*x2", "-0.3*x1", "0.2"),
    )
    z = (1.0, 0.5, 0.0)
    grid = make_grid(radius=9.0, n=32)
    s0 = solve_frozen_magnetic(z, mu, grid, tol=1e-6)
    sA = solve_frozen_magnetic(z, ma, grid, tol=1e-6)
    assert sA.energy_J == pytest.approx(s0.energy_J, rel=1e-10)
    split = phase_factor_split(sA.u, z, ma)
    assert split.imag_fraction < 1e-6


def test_spike_width_halves_when_eps_halves():
    model = mk_model()
    s1 = solve_magnetic(model, make_grid(radius=11.5, n=64), 1.0, tol=1e-4)
    s2 = solve_magnetic(model, make_grid(radius=6.5, n=64), 0.5, tol=1e-4)
    f1, f2 = _fwhm(s1), _fwhm(s2)
    assert f1 == pytest.approx(1.3294477328082464, rel=1e-3)
    assert abs(f1 / f2 - 2.0) < 0.2


def _fwhm(sol):
    """Full width at half maximum along the first axis through the peak.

    Each half-height crossing comes from the quadratic through the three
    nodes around it, which is what the sixth-order profile supports.
    """
    m = np.abs(sol.u.values)
    i = np.unravel_index(int(np.argmax(m)), m.shape)
    line = m[:, i[1], i[2]].astype(float)
    x = sol.u.grid.axis(0)
    h = sol.u.grid.spacing
    half = line.max() / 2.0
    above = np.where(line >= half)[0]
    out = []
    for jc, sgn in ((above[0], -1), (above[-1], +1)):
        c = np.polyfit(x[jc - 1 : jc + 2], line[jc - 1 : jc + 2], 2)
        roots = np.roots([c[0], c[1], c[2] - half])
        roots = roots[np.isreal(roots)].real
        out.append(roots[np.argmin(np.abs(roots - x[jc] - sgn * 0.5 * h))])
    return out[1] - out[0]


def test_random_seed_descent_is_deterministic():
    model = mk_model()
    grid = make_grid(radius=8.0, n=24)

    def burst(rng_seed):
        with pytest.raises(ConvergenceError) as e:
            solve_magnetic(model, grid, 1.0, seed="random", rng_seed=rng_seed, tol=1e-12, max_iters=40)
        return e.value.trace

    assert burst(7) == burst(7)
    assert burst(7) != burst(8)


def test_random_seed_on_coarse_grid_warns_when_pinned():
    model = mk_model()
    with pytest.warns(ResolutionWarning):
        sol = solve_magnetic(model, make_grid(radius=11.5, n=32), 1.0, seed="random", rng_seed=3, tol=1e-4)
    assert math.isfinite(sol.energy_J)


def test_snapshot_seed_restarts_where_the_solve_ended(base48):
    model, sol, _ = base48
    again = solve_magnetic(model, make_grid(radius=11.5, n=48), 1.0, tol=1e-5, seed=sol.u)
    assert again.iterations == 0
    assert again.energy_J == pytest.approx(sol.energy_J, rel=1e-12)


def test_snapshot_seed_grid_must_match():
    # other dims, and the same dims and spacing around another origin
    for other in (make_grid(radius=8.0, n=16), make_grid(radius=8.0, n=24, origin=(0.5, 0.0, 0.0))):
        seed = Field3(other, np.zeros(tuple(other.dims), complex))
        with pytest.raises(SolverError, match="does not match"):
            solve_magnetic(mk_model(), make_grid(radius=8.0, n=24), 1.0, seed=seed)


def test_boundary_gate_rejects_undersized_boxes():
    with pytest.raises(BoundaryMassError):
        solve_magnetic(mk_model(), make_grid(radius=4.0, n=24), 1.0)


def test_iteration_budget_error_carries_the_trace():
    with pytest.raises(ConvergenceError) as e:
        solve_magnetic(mk_model(), make_grid(radius=11.5, n=16), 1.0, tol=1e-14, max_iters=5)
    assert len(e.value.trace) == 5


def test_config_rejects_bad_knobs():
    grid = make_grid(radius=8.0, n=16)
    # a tol of inf would stop at the projected seed, nan would run the whole
    # budget, and a non-finite eps would end in an error that blames the box
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(SolverError, match="eps must be positive"):
            solve_magnetic(mk_model(), grid, eps)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(SolverError, match="tolerance must be positive"):
            solve_magnetic(mk_model(), grid, 1.0, tol=tol)
    # a path is no seed: the CLI reads snapshots, the solve takes a Field3;
    # nor is a bare array of the grid's shape
    for seed in ("Frozen", "", "state.spkf", np.zeros((16, 16, 16), complex)):
        with pytest.raises(SolverError, match="unknown seed"):
            solve_magnetic(mk_model(), grid, 1.0, seed=seed)


def test_phase_split_rejects_a_zero_field():
    grid = make_grid(radius=5.0, n=12)
    z = Field3(grid, np.zeros(tuple(grid.dims), complex))
    with pytest.raises(SolverError):
        phase_factor_split(z, (0.0, 0.0, 0.0), mk_model())


_SPLIT_GRID = make_grid(radius=5.0, n=12)
_SPLIT_MODEL = mk_model(A=("0.4", "-0.1", "0.25"))


@settings(max_examples=20, deadline=None)
@given(omega=st.floats(min_value=-3.0, max_value=3.0))
def test_phase_split_recovers_a_planted_rotation(omega):
    X = _SPLIT_GRID.meshgrid()
    G = np.exp(-(X[0] ** 2 + X[1] ** 2 + X[2] ** 2) / 2.0)
    planted = omega + 0.4 * X[0] - 0.1 * X[1] + 0.25 * X[2]
    v = Field3(_SPLIT_GRID, G * np.exp(1j * planted))
    split = phase_factor_split(v, (0.0, 0.0, 0.0), _SPLIT_MODEL)
    assert split.omega == pytest.approx(omega, abs=1e-9)
    assert split.imag_fraction < 1e-10
    assert np.allclose(np.abs(split.U.values), G, atol=1e-12)
